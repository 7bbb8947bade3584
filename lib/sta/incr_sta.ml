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
let[@inline] same_bits a b = a = b && (a <> 0. || 1. /. a = 1. /. b)

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

type metrics = {
  m_unreliability : float;
  m_delay : float;
  m_energy : float;
  m_area : float;
}

type t = {
  lib : Library.t;
  env : Timing.env;
  charge : float option;
  circuit : Circuit.t;
  cells : Cell_params.t option array;
  kernels : Library.kernel option array;
  glitch : Library.glitch option array;
  pin_cap : float array;
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
  work : work;
}

(* Per-handle scratch and the undo log; a fork gets its own. *)
and work = {
  out : float array;  (* [Library.kernel_timing]'s delay and ramp *)
  sta_dirty : bool array;  (* both consumed by [propagate]'s own scans *)
  load_dirty : bool array;
  touched : bool array;  (* both read by the caller after [propagate] *)
  delay_changed : bool array;
  marks : int array;  (* the ids flagged in either, cleared by the next *)
  mutable n_marks : int;
  mutable logging : bool;
  saved : bool array;  (* this node's state is in the shadows *)
  log : int array;  (* the saved ids, [n_log] of them *)
  mutable n_log : int;
  u_cells : Cell_params.t option array;
  u_kernels : Library.kernel option array;
  u_glitch : Library.glitch option array;
  u_floats : float array;  (* the [n_floats] per-node floats, node-major *)
  mutable u_critical_delay : float;
}

(* the float arrays of [t], from [pin_cap] to [glitch_high] *)
let n_floats = 11

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

let kernel_exn t id =
  match t.kernels.(id) with
  | Some k -> k
  | None -> invalid_arg "Incr_sta: primary input has no cell"

(* Under a trial, copy a node's whole state into the shadows before its
   first write; [rollback] copies it back. *)
let save t id =
  let w = t.work in
  if w.logging && not w.saved.(id) then begin
    w.saved.(id) <- true;
    w.log.(w.n_log) <- id;
    w.n_log <- w.n_log + 1;
    w.u_cells.(id) <- t.cells.(id);
    w.u_kernels.(id) <- t.kernels.(id);
    w.u_glitch.(id) <- t.glitch.(id);
    let u = w.u_floats and o = n_floats * id in
    u.(o) <- t.pin_cap.(id);
    u.(o + 1) <- t.loads.(id);
    u.(o + 2) <- t.input_ramp.(id);
    u.(o + 3) <- t.delays.(id);
    u.(o + 4) <- t.ramps.(id);
    u.(o + 5) <- t.arrival.(id);
    u.(o + 6) <- t.dyn_energy.(id);
    u.(o + 7) <- t.leak_power.(id);
    u.(o + 8) <- t.cell_area.(id);
    u.(o + 9) <- t.glitch_low.(id);
    u.(o + 10) <- t.glitch_high.(id)
  end

let restore_node t id =
  let w = t.work in
  t.cells.(id) <- w.u_cells.(id);
  t.kernels.(id) <- w.u_kernels.(id);
  t.glitch.(id) <- w.u_glitch.(id);
  let u = w.u_floats and o = n_floats * id in
  t.pin_cap.(id) <- u.(o);
  t.loads.(id) <- u.(o + 1);
  t.input_ramp.(id) <- u.(o + 2);
  t.delays.(id) <- u.(o + 3);
  t.ramps.(id) <- u.(o + 4);
  t.arrival.(id) <- u.(o + 5);
  t.dyn_energy.(id) <- u.(o + 6);
  t.leak_power.(id) <- u.(o + 7);
  t.cell_area.(id) <- u.(o + 8);
  t.glitch_low.(id) <- u.(o + 9);
  t.glitch_high.(id) <- u.(o + 10)

let begin_trial t =
  let w = t.work in
  if w.logging then invalid_arg "Incr_sta.begin_trial: a trial is open";
  w.logging <- true;
  w.u_critical_delay <- t.critical_delay

let close_trial t ~restore =
  let w = t.work in
  if not w.logging then invalid_arg "Incr_sta: no open trial";
  for i = 0 to w.n_log - 1 do
    let id = w.log.(i) in
    w.saved.(id) <- false;
    if restore then restore_node t id
  done;
  if restore then t.critical_delay <- w.u_critical_delay;
  w.n_log <- 0;
  w.logging <- false

let rollback t = close_trial t ~restore:true
let commit t = close_trial t ~restore:false

let put_cell t g cell =
  save t g;
  t.cells.(g) <- Some cell;
  t.kernels.(g) <- Some (Library.kernel t.lib cell);
  t.pin_cap.(g) <- Library.input_cap t.lib cell;
  if Option.is_some t.charge then
    t.glitch.(g) <- Some (Library.glitch_kernel t.lib cell)

(* The terms that move with a gate's cell or its node load: switching
   energy and the two generated glitch widths. *)
let refresh_electrical t id cell ~charge =
  t.dyn_energy.(id) <- Library.switching_energy t.lib cell ~cload:t.loads.(id);
  let node_cap = t.loads.(id) +. Library.output_cap t.lib cell in
  match t.glitch.(id) with
  | None -> invalid_arg "Incr_sta: primary input has no cell"
  | Some k ->
    t.glitch_low.(id) <- Library.glitch_width k ~node_cap ~charge ~output_low:true;
    t.glitch_high.(id) <-
      Library.glitch_width k ~node_cap ~charge ~output_low:false

(* The terms that move with the cell alone. *)
let refresh_static t id cell =
  t.leak_power.(id) <- Library.leakage_power t.lib cell;
  t.cell_area.(id) <- Library.area t.lib cell

let adopt t (timing : Timing.t) =
  let n = Array.length t.loads in
  for id = 0 to n - 1 do
    save t id
  done;
  Array.blit timing.Timing.loads 0 t.loads 0 n;
  Array.blit timing.Timing.input_ramp 0 t.input_ramp 0 n;
  Array.blit timing.Timing.delays 0 t.delays 0 n;
  Array.blit timing.Timing.ramps 0 t.ramps 0 n;
  Array.blit timing.Timing.arrival 0 t.arrival 0 n;
  t.critical_delay <- timing.Timing.critical_delay;
  match t.charge with
  | None -> ()
  | Some charge ->
    Array.iteri
      (fun id cell ->
        match cell with
        | None -> ()
        | Some p ->
          refresh_static t id p;
          refresh_electrical t id p ~charge)
      t.cells

let fresh_work n =
  {
    out = [| 0.; 0. |];
    sta_dirty = Array.make n false;
    load_dirty = Array.make n false;
    touched = Array.make n false;
    delay_changed = Array.make n false;
    marks = Array.make n 0;
    n_marks = 0;
    logging = false;
    saved = Array.make n false;
    log = Array.make n 0;
    n_log = 0;
    u_cells = Array.make n None;
    u_kernels = Array.make n None;
    u_glitch = Array.make n None;
    u_floats = Array.make (n_floats * n) 0.;
    u_critical_delay = 0.;
  }

let create ?charge ~env lib asg timing =
  let c = Assignment.circuit asg in
  let n = Circuit.node_count c in
  let z () = Array.make n 0. in
  let cells =
    Array.init n (fun id ->
        if Circuit.is_input c id then None else Some (Assignment.get asg id))
  in
  let t =
    {
      lib;
      env;
      charge;
      circuit = c;
      cells;
      kernels = Array.map (Option.map (Library.kernel lib)) cells;
      glitch =
        (match charge with
        | None -> Array.make n None
        | Some _ -> Array.map (Option.map (Library.glitch_kernel lib)) cells);
      pin_cap =
        Array.map
          (function None -> 0. | Some p -> Library.input_cap lib p)
          cells;
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
      work = fresh_work n;
    }
  in
  adopt t timing;
  t

let fork t =
  {
    t with
    cells = Array.copy t.cells;
    kernels = Array.copy t.kernels;
    glitch = Array.copy t.glitch;
    pin_cap = Array.copy t.pin_cap;
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
    work = fresh_work (Array.length t.cells);
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

let set_cells t batch = List.iter (fun (g, cell) -> put_cell t g cell) batch

let assignment t =
  let asg = Assignment.uniform t.lib t.circuit in
  Array.iteri
    (fun id cell ->
      match cell with None -> () | Some p -> Assignment.set asg id p)
    t.cells;
  asg

(* Flag a node touched / delay-changed, remembering it for the clear at
   the next [propagate]. *)
let mark (w : work) id =
  if not (w.touched.(id) || w.delay_changed.(id)) then begin
    w.marks.(w.n_marks) <- id;
    w.n_marks <- w.n_marks + 1
  end

(* The per-gate loops below are plain [for] loops over unboxed local
   accumulators: no closure, tuple or float return per gate. *)
let propagate t batch =
  let c = t.circuit in
  let n = Circuit.node_count c in
  let w : work = t.work in
  for i = 0 to w.n_marks - 1 do
    let id = w.marks.(i) in
    w.touched.(id) <- false;
    w.delay_changed.(id) <- false
  done;
  w.n_marks <- 0;
  let sta_dirty = w.sta_dirty and load_dirty = w.load_dirty in
  (* 1. apply the cell writes, refresh the cell-only terms, and seed
     the dirty sets: the gate itself plus every fan-in net whose load
     its input pins contribute to *)
  List.iter
    (fun (g, cell) ->
      put_cell t g cell;
      if Option.is_some t.charge then refresh_static t g cell;
      sta_dirty.(g) <- true;
      mark w g;
      w.touched.(g) <- true;
      let fanin = (Circuit.node c g).Circuit.fanin in
      for q = 0 to Array.length fanin - 1 do
        load_dirty.(fanin.(q)) <- true
      done)
    batch;
  (* 2. loads (after all writes: two changed gates may share a net),
     exactly as Timing.compute_loads produces them: for a fixed node,
     the sweep over readers adds each reader pin's input capacitance in
     ascending (reader id, pin) order — which is precisely the order of
     the node's [fanout] array — and the primary-output pin capacitance
     comes last *)
  for f = 0 to n - 1 do
    if load_dirty.(f) then begin
      load_dirty.(f) <- false;
      let fanout = (Circuit.node c f).Circuit.fanout in
      let l = ref 0. in
      for q = 0 to Array.length fanout - 1 do
        l := !l +. t.pin_cap.(fanout.(q))
      done;
      if Circuit.is_output c f then l := !l +. t.env.Timing.po_cap;
      if not (same_bits !l t.loads.(f)) then begin
        save t f;
        t.loads.(f) <- !l;
        if not (Circuit.is_input c f) then begin
          sta_dirty.(f) <- true;
          mark w f;
          w.touched.(f) <- true
        end
      end
    end
  done;
  (* 3. forward STA over the fanout cone, ascending ids (ids are
     topological), replaying Timing.analyze's per-gate body; cutoff:
     a gate whose output ramp and arrival are bit-unchanged does not
     dirty its readers *)
  let pi_ramp = t.env.Timing.pi_ramp in
  let out = w.out in
  let recomputed = ref 0 and cutoff = ref 0 in
  for id = 0 to n - 1 do
    if sta_dirty.(id) then begin
      sta_dirty.(id) <- false;
      incr recomputed;
      save t id;
      let nd = Circuit.node c id in
      let worst_ramp = ref pi_ramp in
      let worst_arrival = ref 0. in
      let fanin = nd.Circuit.fanin in
      for q = 0 to Array.length fanin - 1 do
        let f = fanin.(q) in
        if t.ramps.(f) > !worst_ramp then worst_ramp := t.ramps.(f);
        if t.arrival.(f) > !worst_arrival then worst_arrival := t.arrival.(f)
      done;
      Library.kernel_timing (kernel_exn t id) ~input_ramp:!worst_ramp
        ~cload:t.loads.(id) out;
      let d = out.(0) and r = out.(1) in
      let a = !worst_arrival +. d in
      t.input_ramp.(id) <- !worst_ramp;
      if not (same_bits d t.delays.(id)) then begin
        t.delays.(id) <- d;
        mark w id;
        w.delay_changed.(id) <- true
      end;
      let out_changed =
        not (same_bits r t.ramps.(id) && same_bits a t.arrival.(id))
      in
      t.ramps.(id) <- r;
      t.arrival.(id) <- a;
      if out_changed then begin
        let fanout = nd.Circuit.fanout in
        for q = 0 to Array.length fanout - 1 do
          sta_dirty.(fanout.(q)) <- true
        done
      end
      else incr cutoff
    end
  done;
  let critical = ref 0. in
  let outputs = c.Circuit.outputs in
  for i = 0 to Array.length outputs - 1 do
    critical := Float.max !critical t.arrival.(outputs.(i))
  done;
  t.critical_delay <- !critical;
  (* 4. switching energy and generated glitch widths wherever the cell
     or the node load changed *)
  (match t.charge with
  | None -> ()
  | Some charge ->
    for i = 0 to w.n_marks - 1 do
      let id = w.marks.(i) in
      if w.touched.(id) then refresh_electrical t id (cell_exn t id) ~charge
    done);
  {
    touched = w.touched;
    delay_changed = w.delay_changed;
    sta_recomputed = !recomputed;
    sta_cutoff = !cutoff;
  }

(* Exactly Timing.total_energy with its default activity (0.2) and
   default clock (1.2 x critical delay): the fold visits gates in id
   order with the same operation tree. *)
let energy t =
  let clock = 1.2 *. t.critical_delay in
  let acc = ref 0. in
  for id = 0 to Array.length t.cells - 1 do
    match t.cells.(id) with
    | None -> ()
    | Some _ ->
      let leak = t.leak_power.(id) *. clock in
      acc := !acc +. (0.2 *. t.dyn_energy.(id)) +. leak
  done;
  !acc

(* Exactly Assignment.total_area's fold. *)
let area t =
  let acc = ref 0. in
  for id = 0 to Array.length t.cells - 1 do
    match t.cells.(id) with None -> () | Some _ -> acc := !acc +. t.cell_area.(id)
  done;
  !acc

let metrics t ~unreliability =
  {
    m_unreliability = unreliability;
    m_delay = t.critical_delay;
    m_energy = energy t;
    m_area = area t;
  }

let timing t =
  let required, slack =
    Timing.backward t.circuit ~delays:t.delays ~arrival:t.arrival
      ~critical_delay:t.critical_delay
  in
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
