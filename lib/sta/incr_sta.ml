module Circuit = Ser_netlist.Circuit
module Gate = Ser_netlist.Gate
module Library = Ser_cell.Library
module Cell_params = Ser_device.Cell_params

(* The early-cutoff comparison. [true] guarantees the two values are
   bit-identical, so they are interchangeable in every downstream
   computation; [false] merely forces a recompute, which replays the
   same kernels and lands on the same bits — correct either way. Plain
   float [=] alone is not a valid [true]: it identifies 0. and -0.
   (distinguished here by their reciprocals, with no allocation, unlike
   [Int64.bits_of_float] which boxes in bytecode/dev builds). NaNs
   compare unequal and simply forgo the cutoff. *)
let same_bits a b = a = b && (a <> 0. || 1. /. a = 1. /. b)

let same_row a b =
  a == b
  ||
  let n = Array.length a in
  Array.length b = n
  &&
  let ok = ref true in
  let k = ref 0 in
  while !ok && !k < n do
    if not (same_bits a.(!k) b.(!k)) then ok := false;
    incr k
  done;
  !ok

module Memo = struct
  type stats = { hits : int; misses : int }

  type t = {
    timing : (Cell_params.t * float * float, float * float) Hashtbl.t;
    glitch : (Cell_params.t * float * float, float * float) Hashtbl.t;
    mu : Mutex.t;
    mutable hits : int;
    mutable misses : int;
  }

  let create () =
    {
      timing = Hashtbl.create 1024;
      glitch = Hashtbl.create 512;
      mu = Mutex.create ();
      hits = 0;
      misses = 0;
    }

  let stats m =
    Mutex.lock m.mu;
    let s = { hits = m.hits; misses = m.misses } in
    Mutex.unlock m.mu;
    s

  (* The mutex is released around [compute]: a miss may itself take the
     library's characterisation lock (Transient backend), and two
     workers racing on the same key merely compute the same pure value
     twice. *)
  let lookup m tbl key compute =
    Mutex.lock m.mu;
    match Hashtbl.find_opt tbl key with
    | Some v ->
      m.hits <- m.hits + 1;
      Mutex.unlock m.mu;
      v
    | None ->
      m.misses <- m.misses + 1;
      Mutex.unlock m.mu;
      let v = compute () in
      Mutex.lock m.mu;
      Hashtbl.replace tbl key v;
      Mutex.unlock m.mu;
      v
end

type metrics = {
  m_unreliability : float;
  m_delay : float;
  m_energy : float;
  m_area : float;
}

type t = {
  lib : Library.t;
  env : Timing.env;
  charge : float;
  circuit : Circuit.t;
  cells : Cell_params.t option array;
  loads : float array;
  input_ramp : float array;
  delays : float array;
  ramps : float array;
  arrival : float array;
  mutable critical_delay : float;
  dyn_energy : float array;
  leak_power : float array;
  cell_area : float array;
  glitch_low : float array;
  glitch_high : float array;
  memo : Memo.t;
}

type dirty = {
  touched : bool array;
  delay_changed : bool array;
  sta_recomputed : int;
  sta_cutoff : int;
}

let cell_exn t id =
  match t.cells.(id) with
  | Some p -> p
  | None -> invalid_arg "Incr_sta: primary input has no cell"

let memo_timing t cell ~input_ramp ~cload =
  Memo.lookup t.memo t.memo.Memo.timing (cell, input_ramp, cload) (fun () ->
      ( Library.delay t.lib cell ~input_ramp ~cload,
        Library.output_ramp t.lib cell ~input_ramp ~cload ))

let memo_glitch t cell ~node_cap =
  let charge = t.charge in
  Memo.lookup t.memo t.memo.Memo.glitch (cell, node_cap, charge) (fun () ->
      ( Library.generated_glitch_width t.lib cell ~node_cap ~charge
          ~output_low:true,
        Library.generated_glitch_width t.lib cell ~node_cap ~charge
          ~output_low:false ))

(* The terms that move with a gate's cell or its node load: switching
   energy and the two generated glitch widths. *)
let refresh_electrical t id cell =
  t.dyn_energy.(id) <- Library.switching_energy t.lib cell ~cload:t.loads.(id);
  let node_cap = t.loads.(id) +. Library.output_cap t.lib cell in
  let wl, wh = memo_glitch t cell ~node_cap in
  t.glitch_low.(id) <- wl;
  t.glitch_high.(id) <- wh

let adopt t (timing : Timing.t) =
  let n = Array.length t.loads in
  Array.blit timing.Timing.loads 0 t.loads 0 n;
  Array.blit timing.Timing.input_ramp 0 t.input_ramp 0 n;
  Array.blit timing.Timing.delays 0 t.delays 0 n;
  Array.blit timing.Timing.ramps 0 t.ramps 0 n;
  Array.blit timing.Timing.arrival 0 t.arrival 0 n;
  t.critical_delay <- timing.Timing.critical_delay;
  Array.iteri
    (fun id cell ->
      match cell with
      | None -> ()
      | Some p ->
        t.leak_power.(id) <- Library.leakage_power t.lib p;
        t.cell_area.(id) <- Library.area t.lib p;
        refresh_electrical t id p)
    t.cells

let create ?memo ~env ~charge lib asg timing =
  let c = Assignment.circuit asg in
  let n = Circuit.node_count c in
  let z () = Array.make n 0. in
  let t =
    {
      lib;
      env;
      charge;
      circuit = c;
      cells =
        Array.init n (fun id ->
            if Circuit.is_input c id then None else Some (Assignment.get asg id));
      loads = z ();
      input_ramp = z ();
      delays = z ();
      ramps = z ();
      arrival = z ();
      critical_delay = 0.;
      dyn_energy = z ();
      leak_power = z ();
      cell_area = z ();
      glitch_low = z ();
      glitch_high = z ();
      memo = (match memo with Some m -> m | None -> Memo.create ());
    }
  in
  adopt t timing;
  t

let fork t =
  {
    t with
    cells = Array.copy t.cells;
    loads = Array.copy t.loads;
    input_ramp = Array.copy t.input_ramp;
    delays = Array.copy t.delays;
    ramps = Array.copy t.ramps;
    arrival = Array.copy t.arrival;
    dyn_energy = Array.copy t.dyn_energy;
    leak_power = Array.copy t.leak_power;
    cell_area = Array.copy t.cell_area;
    glitch_low = Array.copy t.glitch_low;
    glitch_high = Array.copy t.glitch_high;
  }

let changes ~who t batch =
  let c = t.circuit in
  List.filter
    (fun (g, (cell : Cell_params.t)) ->
      if g < 0 || g >= Circuit.node_count c then
        invalid_arg (who ^ ": gate id out of range");
      let nd = Circuit.node c g in
      if nd.Circuit.kind = Gate.Input then invalid_arg (who ^ ": primary input");
      if
        cell.Cell_params.kind <> nd.Circuit.kind
        || cell.Cell_params.fanin <> Array.length nd.Circuit.fanin
      then invalid_arg (who ^ ": cell does not match gate");
      not (Cell_params.equal (cell_exn t g) cell))
    batch

let diff ~who t asg =
  if Assignment.circuit asg != t.circuit then
    invalid_arg (who ^ ": assignment is for a different circuit");
  let diffs = ref [] in
  for id = Circuit.node_count t.circuit - 1 downto 0 do
    match t.cells.(id) with
    | None -> ()
    | Some cur ->
      let want = Assignment.get asg id in
      if not (Cell_params.equal cur want) then diffs := (id, want) :: !diffs
  done;
  !diffs

(* When one batch touches a large fraction of the gates, the union of
   the dirty cones covers nearly the whole circuit and cone propagation
   costs more than the from-scratch pass it replays. *)
let wants_rebuild t batch =
  List.length batch > max 8 (Circuit.gate_count t.circuit / 8)

let set_cells t batch = List.iter (fun (g, cell) -> t.cells.(g) <- Some cell) batch

let assignment t =
  let asg = Assignment.uniform t.lib t.circuit in
  Array.iteri
    (fun id cell ->
      match cell with None -> () | Some p -> Assignment.set asg id p)
    t.cells;
  asg

(* Recompute one node's load exactly as Timing.compute_loads produces
   it: for a fixed node, the sweep over readers adds each reader pin's
   input capacitance in ascending (reader id, pin) order — which is
   precisely the order of the node's [fanout] array — and the primary-
   output pin capacitance comes last. *)
let recompute_load t f =
  let nd = Circuit.node t.circuit f in
  let acc = ref 0. in
  Array.iter
    (fun r -> acc := !acc +. Library.input_cap t.lib (cell_exn t r))
    nd.Circuit.fanout;
  if Circuit.is_output t.circuit f then acc := !acc +. t.env.Timing.po_cap;
  !acc

let propagate t batch =
  let c = t.circuit in
  let n = Circuit.node_count c in
  let sta_dirty = Array.make n false in
  let delay_changed = Array.make n false in
  let touched = Array.make n false in
  let load_dirty = Array.make n false in
  (* 1. apply the cell writes, refresh the cell-only terms, and seed
     the dirty sets: the gate itself plus every fan-in net whose load
     its input pins contribute to *)
  List.iter
    (fun (g, cell) ->
      t.cells.(g) <- Some cell;
      t.leak_power.(g) <- Library.leakage_power t.lib cell;
      t.cell_area.(g) <- Library.area t.lib cell;
      sta_dirty.(g) <- true;
      touched.(g) <- true;
      Array.iter
        (fun f -> load_dirty.(f) <- true)
        (Circuit.node c g).Circuit.fanin)
    batch;
  (* 2. loads (after all writes: two changed gates may share a net) *)
  for f = 0 to n - 1 do
    if load_dirty.(f) then begin
      let l = recompute_load t f in
      if not (same_bits l t.loads.(f)) then begin
        t.loads.(f) <- l;
        if not (Circuit.is_input c f) then begin
          sta_dirty.(f) <- true;
          touched.(f) <- true
        end
      end
    end
  done;
  (* 3. forward STA over the fanout cone, ascending ids (ids are
     topological), replaying Timing.analyze's per-gate body; cutoff:
     a gate whose output ramp and arrival are bit-unchanged does not
     dirty its readers *)
  let pi_ramp = t.env.Timing.pi_ramp in
  let recomputed = ref 0 and cutoff = ref 0 in
  for id = 0 to n - 1 do
    if sta_dirty.(id) then begin
      incr recomputed;
      let nd = Circuit.node c id in
      let worst_ramp = ref pi_ramp in
      let worst_arrival = ref 0. in
      Array.iter
        (fun f ->
          if t.ramps.(f) > !worst_ramp then worst_ramp := t.ramps.(f);
          if t.arrival.(f) > !worst_arrival then worst_arrival := t.arrival.(f))
        nd.Circuit.fanin;
      let d, r =
        memo_timing t (cell_exn t id) ~input_ramp:!worst_ramp
          ~cload:t.loads.(id)
      in
      let a = !worst_arrival +. d in
      t.input_ramp.(id) <- !worst_ramp;
      if not (same_bits d t.delays.(id)) then begin
        t.delays.(id) <- d;
        delay_changed.(id) <- true
      end;
      let out_changed =
        not (same_bits r t.ramps.(id) && same_bits a t.arrival.(id))
      in
      t.ramps.(id) <- r;
      t.arrival.(id) <- a;
      if out_changed then
        Array.iter (fun reader -> sta_dirty.(reader) <- true) nd.Circuit.fanout
      else incr cutoff
    end
  done;
  t.critical_delay <-
    Array.fold_left
      (fun acc po -> Float.max acc t.arrival.(po))
      0. c.Circuit.outputs;
  (* 4. switching energy and generated glitch widths wherever the cell
     or the node load changed *)
  for id = 0 to n - 1 do
    if touched.(id) then refresh_electrical t id (cell_exn t id)
  done;
  { touched; delay_changed; sta_recomputed = !recomputed; sta_cutoff = !cutoff }

(* Exactly Timing.total_energy with its default activity (0.2) and
   default clock (1.2 x critical delay): the fold visits gates in id
   order with the same operation tree. *)
let energy t =
  let clock = 1.2 *. t.critical_delay in
  let acc = ref 0. in
  Array.iteri
    (fun id cell ->
      match cell with
      | None -> ()
      | Some _ ->
        let leak = t.leak_power.(id) *. clock in
        acc := !acc +. (0.2 *. t.dyn_energy.(id)) +. leak)
    t.cells;
  !acc

(* Exactly Assignment.total_area's fold. *)
let area t =
  let acc = ref 0. in
  Array.iteri
    (fun id cell ->
      match cell with None -> () | Some _ -> acc := !acc +. t.cell_area.(id))
    t.cells;
  !acc

let metrics t ~unreliability =
  {
    m_unreliability = unreliability;
    m_delay = t.critical_delay;
    m_energy = energy t;
    m_area = area t;
  }

let timing t =
  let c = t.circuit in
  let n = Circuit.node_count c in
  (* required/slack are not maintained incrementally (no consumer in
     the optimizer's inner loop); rebuild them with Timing.analyze's
     backward sweep from the maintained delays/arrivals *)
  let required = Array.make n Float.max_float in
  Array.iter (fun po -> required.(po) <- t.critical_delay) c.Circuit.outputs;
  for id = n - 1 downto 0 do
    let nd = c.Circuit.nodes.(id) in
    Array.iter
      (fun reader ->
        let r = required.(reader) -. t.delays.(reader) in
        if r < required.(id) then required.(id) <- r)
      nd.Circuit.fanout
  done;
  let slack = Array.init n (fun id -> required.(id) -. t.arrival.(id)) in
  {
    Timing.loads = Array.copy t.loads;
    input_ramp = Array.copy t.input_ramp;
    delays = Array.copy t.delays;
    ramps = Array.copy t.ramps;
    arrival = Array.copy t.arrival;
    required;
    slack;
    critical_delay = t.critical_delay;
  }
