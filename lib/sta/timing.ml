module Circuit = Ser_netlist.Circuit
module Gate = Ser_netlist.Gate
module Library = Ser_cell.Library

type t = {
  loads : float array;
  input_ramp : float array;
  delays : float array;
  ramps : float array;
  arrival : float array;
  required : float array;
  slack : float array;
  critical_delay : float;
}

type env = { po_cap : float; pi_ramp : float }

let default_env = { po_cap = 1.0; pi_ramp = 20. }

let compute_loads ~env lib asg =
  let c = Assignment.circuit asg in
  let n = Circuit.node_count c in
  let loads = Array.make n 0. in
  Array.iter
    (fun (nd : Circuit.node) ->
      if nd.kind <> Gate.Input then begin
        let cin = Library.input_cap lib (Assignment.get asg nd.id) in
        Array.iter (fun f -> loads.(f) <- loads.(f) +. cin) nd.fanin
      end)
    c.nodes;
  Array.iter (fun po -> loads.(po) <- loads.(po) +. env.po_cap) c.outputs;
  loads

(* Required times subtract the delays that arrivals added, so a
   critical node's slack lands within rounding of zero; a residue below
   1e-9 of the critical delay is that rounding and reads as exactly 0. *)
let backward (c : Circuit.t) ~delays ~arrival ~critical_delay =
  let n = Circuit.node_count c in
  let required = Array.make n Float.max_float in
  Array.iter (fun po -> required.(po) <- critical_delay) c.outputs;
  for id = n - 1 downto 0 do
    Array.iter
      (fun reader ->
        let r = required.(reader) -. delays.(reader) in
        if r < required.(id) then required.(id) <- r)
      c.nodes.(id).fanout
  done;
  let eps = 1e-9 *. critical_delay in
  let slack =
    Array.init n (fun id ->
        let s = required.(id) -. arrival.(id) in
        if Float.abs s <= eps then 0. else s)
  in
  (required, slack)

let analyze ?(env = default_env) lib asg =
  let c = Assignment.circuit asg in
  let n = Circuit.node_count c in
  let loads = compute_loads ~env lib asg in
  let input_ramp = Array.make n env.pi_ramp in
  let delays = Array.make n 0. in
  let ramps = Array.make n env.pi_ramp in
  let arrival = Array.make n 0. in
  let out = [| 0.; 0. |] in
  Array.iter
    (fun (nd : Circuit.node) ->
      if nd.kind <> Gate.Input then begin
        let id = nd.id in
        let worst_ramp = ref env.pi_ramp in
        let worst_arrival = ref 0. in
        let fanin = nd.fanin in
        for q = 0 to Array.length fanin - 1 do
          let f = fanin.(q) in
          if ramps.(f) > !worst_ramp then worst_ramp := ramps.(f);
          if arrival.(f) > !worst_arrival then worst_arrival := arrival.(f)
        done;
        let k = Library.kernel lib (Assignment.get asg id) in
        Library.kernel_timing k ~input_ramp:!worst_ramp ~cload:loads.(id) out;
        input_ramp.(id) <- !worst_ramp;
        delays.(id) <- out.(0);
        ramps.(id) <- out.(1);
        arrival.(id) <- !worst_arrival +. delays.(id)
      end)
    c.nodes;
  let critical_delay =
    Array.fold_left (fun acc po -> Float.max acc arrival.(po)) 0. c.outputs
  in
  let required, slack = backward c ~delays ~arrival ~critical_delay in
  { loads; input_ramp; delays; ramps; arrival; required; slack; critical_delay }

let critical_path asg timing =
  let c = Assignment.circuit asg in
  (* start at the worst primary output, walk back along worst arrivals *)
  let po =
    Array.fold_left
      (fun best po ->
        match best with
        | None -> Some po
        | Some b -> if timing.arrival.(po) > timing.arrival.(b) then Some po else best)
      None c.outputs
    |> Option.get
  in
  let rec walk acc id =
    let nd = Circuit.node c id in
    if nd.kind = Gate.Input then id :: acc
    else begin
      let worst =
        Array.fold_left
          (fun best f ->
            match best with
            | None -> Some f
            | Some b -> if timing.arrival.(f) > timing.arrival.(b) then Some f else best)
          None nd.fanin
        |> Option.get
      in
      walk (id :: acc) worst
    end
  in
  Array.of_list (walk [] po)

let total_energy ?(env = default_env) ?clock ?(activity = 0.2) ?timing lib asg =
  let timing = match timing with Some t -> t | None -> analyze ~env lib asg in
  let clock = match clock with Some t -> t | None -> 1.2 *. timing.critical_delay in
  Assignment.fold_gates asg ~init:0. ~f:(fun acc id p ->
      let dyn = Library.switching_energy lib p ~cload:timing.loads.(id) in
      let leak = Library.leakage_power lib p *. clock in
      acc +. (activity *. dyn) +. leak)
