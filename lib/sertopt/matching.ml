module Circuit = Ser_netlist.Circuit
module Gate = Ser_netlist.Gate
module Library = Ser_cell.Library
module Cell_params = Ser_device.Cell_params
module Assignment = Ser_sta.Assignment
module Timing = Ser_sta.Timing

type options = {
  max_size : float;
  env : Timing.env;
}

let default_options = { max_size = 8.; env = Timing.default_env }

(* The allowed menu of one (kind, fan-in), in [Library.variants] order,
   with everything the matching loop reads per candidate. *)
type menu = {
  cells : Cell_params.t array;
  kernels : Library.kernel array;
  vdd : float array;
  area : float array;
  cin : float array;
}

type context = {
  lib : Library.t;
  base : Assignment.t;
  po_cap : float;
  ramp : float array;
  menus : menu option array;
  widest : int;  (* longest menu *)
}

let context ?(options = default_options) lib base =
  let c = Assignment.circuit base in
  let by_kind = Hashtbl.create 16 in
  let menu_of (nd : Circuit.node) =
    let key = (nd.kind, Array.length nd.fanin) in
    match Hashtbl.find_opt by_kind key with
    | Some m -> m
    | None ->
      let cells =
        Library.variants lib nd.kind (Array.length nd.fanin)
        |> List.filter (fun (p : Cell_params.t) ->
               p.size <= options.max_size +. 1e-9)
        |> Array.of_list
      in
      let m =
        {
          cells;
          kernels = Array.map (Library.kernel lib) cells;
          vdd = Array.map (fun (p : Cell_params.t) -> p.vdd) cells;
          area = Array.map (Library.area lib) cells;
          cin = Array.map (Library.input_cap lib) cells;
        }
      in
      Hashtbl.replace by_kind key m;
      m
  in
  let menus =
    Array.map
      (fun (nd : Circuit.node) ->
        if nd.kind = Gate.Input then None else Some (menu_of nd))
      c.nodes
  in
  {
    lib;
    base;
    po_cap = options.env.Timing.po_cap;
    ramp = (Timing.analyze ~env:options.env lib base).Timing.input_ramp;
    menus;
    widest = Hashtbl.fold (fun _ m acc -> max acc (Array.length m.cells)) by_kind 0;
  }

let match_delays ctx ~targets =
  let c = Assignment.circuit ctx.base in
  let n = Circuit.node_count c in
  if Array.length targets <> n then
    invalid_arg "Matching.match_delays: targets length mismatch";
  let result = Assignment.copy ctx.base in
  (* loads accumulate as successors get their (new) cells; start with
     primary-output latch loads *)
  let loads = Array.make n 0. in
  Array.iter (fun po -> loads.(po) <- loads.(po) +. ctx.po_cap) c.outputs;
  (* min VDD allowed for each node = max successor VDD, filled in as
     successors are assigned *)
  let min_vdd = Array.make n 0. in
  let err = Array.make ctx.widest 0. in
  let out = [| 0.; 0. |] in
  for id = n - 1 downto 0 do
    match ctx.menus.(id) with
    | None -> ()
    | Some m ->
      let floor = min_vdd.(id) -. 1e-9 in
      let input_ramp = ctx.ramp.(id) and cload = loads.(id) in
      let target = targets.(id) in
      (* best delay match; near-ties (within 10% of the target or 1 ps)
         are broken toward the smallest area (first minimum) so that
         "slower" never silently means "huge long-channel drive" (area
         is particle flux in Eq. 3, so it is precious) *)
      let best_err = ref Float.max_float in
      for j = 0 to Array.length m.cells - 1 do
        if m.vdd.(j) >= floor then begin
          Library.kernel_timing m.kernels.(j) ~input_ramp ~cload out;
          let e = Float.abs (out.(0) -. target) in
          err.(j) <- e;
          best_err := Float.min !best_err e
        end
      done;
      let tie = Float.max 1. (!best_err +. (0.1 *. target)) in
      let pick = ref (-1) in
      for j = 0 to Array.length m.cells - 1 do
        if m.vdd.(j) >= floor && err.(j) <= tie then
          if !pick < 0 || m.area.(j) < m.area.(!pick) then pick := j
      done;
      let cell, cin =
        if !pick >= 0 then (m.cells.(!pick), m.cin.(!pick))
        else begin
          (* no candidate satisfies the VDD floor: fall back to the
             current cell (guaranteed consistent) *)
          let p = Assignment.get ctx.base id in
          (p, Library.input_cap ctx.lib p)
        end
      in
      Assignment.set result id cell;
      (* propagate load and VDD floor to drivers *)
      Array.iter
        (fun f ->
          loads.(f) <- loads.(f) +. cin;
          if cell.Cell_params.vdd > min_vdd.(f) then
            min_vdd.(f) <- cell.Cell_params.vdd)
        c.nodes.(id).Circuit.fanin
  done;
  result
