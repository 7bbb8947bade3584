module Circuit = Ser_netlist.Circuit
module Probs = Ser_logicsim.Probs
module Library = Ser_cell.Library
module Assignment = Ser_sta.Assignment
module Timing = Ser_sta.Timing
module Lut = Ser_table.Lut
module Analysis = Aserta.Analysis
module Obs = Ser_obs.Obs

let m_analyses = Obs.Metrics.counter "serpp.analyses"
let m_gate_evals = Obs.Metrics.counter "serpp.gate_evals"

type config = {
  charge : float;
  n_samples : int;
  max_sample_width : float;
  latch_window : float option;
  pi_probs : float array option;
  env : Timing.env;
}

let default_config =
  {
    charge = 16.;
    n_samples = 10;
    max_sample_width = 800.;
    latch_window = None;
    pi_probs = None;
    env = Timing.default_env;
  }

type t = {
  config : config;
  circuit : Circuit.t;
  probs : float array;
  timing : Timing.t;
  samples : float array;
  profile_cap : float;
  profiles : float array array;
  areas : float array;
  gen_width : float array;
  propagated : float array;
  estimate : float array;
  total : float;
}

let sample_widths config =
  if config.n_samples < 2 then invalid_arg "Serpp.sample_widths: need >= 2";
  Ser_util.Floatx.logspace 2. config.max_sample_width config.n_samples

(* Unique successor ids, in successor-name order. Fanout lists one
   entry per pin and its order follows gate declaration; names are
   stable under re-declaration, so summing contributions name-sorted
   keeps the profile independent of the input file's gate order. *)
let successors_by_name (c : Circuit.t) id =
  let nd = Circuit.node c id in
  let seen = Hashtbl.create 4 in
  let out = ref [] in
  Array.iter
    (fun r ->
      if not (Hashtbl.mem seen r) then begin
        Hashtbl.replace seen r ();
        out := r :: !out
      end)
    nd.fanout;
  List.sort
    (fun a b ->
      String.compare (Circuit.node c a).Circuit.name
        (Circuit.node c b).Circuit.name)
    !out

let latch_cap config =
  match config.latch_window with
  | None -> config.max_sample_width
  | Some w -> Float.min w config.max_sample_width

type context = {
  c_config : config;
  c_circuit : Circuit.t;
  c_probs : float array;
  c_samples : float array;
  c_profile_cap : float;
  c_po_row : float array;
  c_succs : int array array;
  c_sens : float array array;
}

let context ?probs config c =
  let probs =
    match probs with
    | Some p -> p
    | None -> Probs.signal_probabilities ?pi_probs:config.pi_probs c
  in
  let ws = sample_widths config in
  let cap = latch_cap config in
  let n = Circuit.node_count c in
  (* only successors that can sensitize the gate contribute; keeping
     them in name order preserves the accumulation order *)
  let live =
    Array.init n (fun id ->
        if Circuit.is_input c id || Circuit.is_output c id then [||]
        else
          successors_by_name c id
          |> List.filter_map (fun s ->
                 let sens =
                   Probs.sensitization_to_driver c ~probs ~gate:s ~driver:id
                 in
                 if sens > 0. then Some (s, sens) else None)
          |> Array.of_list)
  in
  {
    c_config = config;
    c_circuit = c;
    c_probs = probs;
    c_samples = ws;
    c_profile_cap = float_of_int (Array.length c.outputs) *. cap;
    c_po_row = Array.map (fun w -> Float.min w cap) ws;
    c_succs = Array.map (Array.map fst) live;
    c_sens = Array.map (Array.map snd) live;
  }

(* The profile row of one non-input gate. A primary-output gate's glitch
   goes straight to its own latch (and, as in ASERTA, to no other
   output), derated by the latching window when one is configured. An
   interior gate sums [S_is * profile_s(attenuate(w, delay_s))] over its
   sensitizing successors, reading each successor's Eq-1 brackets
   ([Analysis.ws_brackets] of its delay): [y0 + fr * (y1 - y0)] is
   [Lut.interpolate_1d]'s lerp on the same bracket and fraction, so the
   row is bit-identical to interpolating per sample. *)
let profile_row ctx ~brackets ~profiles id =
  if Circuit.is_output ctx.c_circuit id then Array.copy ctx.c_po_row
  else begin
    let n_samples = Array.length ctx.c_samples in
    let row = Array.make n_samples 0. in
    let succs = ctx.c_succs.(id) and sens = ctx.c_sens.(id) in
    for si = 0 to Array.length succs - 1 do
      let s = succs.(si) in
      let sn = sens.(si) in
      let s_prof = profiles.(s) in
      let lo, fr = brackets.(s) in
      for k = 0 to n_samples - 1 do
        let b = Array.unsafe_get lo k in
        if b >= 0 then begin
          let y0 = s_prof.(b) and y1 = s_prof.(b + 1) in
          row.(k) <- row.(k) +. (sn *. (y0 +. (Array.unsafe_get fr k *. (y1 -. y0))))
        end
      done
    done;
    (* saturate: reconvergent fan-out counts a path family more than
       once, and without the cap the over-count could compound level by
       level *)
    let cap = ctx.c_profile_cap in
    for k = 0 to n_samples - 1 do
      if row.(k) > cap then row.(k) <- cap
    done;
    row
  end

let brackets ctx ~delay = Analysis.ws_brackets ~samples:ctx.c_samples ~delay

let gate_estimate ctx ~w_low ~w_high ~area ~profile id =
  let p1 = ctx.c_probs.(id) in
  let wi = ((1. -. p1) *. w_low) +. (p1 *. w_high) in
  let prop = Lut.interpolate_1d ~xs:ctx.c_samples ~ys:profile wi in
  (wi, prop, area *. prop)

let run_context ctx lib asg =
  let config = ctx.c_config in
  let c = Assignment.circuit asg in
  if c != ctx.c_circuit then
    invalid_arg "Serpp.run_context: assignment is for a different circuit";
  let n = Circuit.node_count c in
  Obs.Metrics.incr m_analyses;
  let timing =
    Obs.Trace.with_span "serpp.sta" (fun () ->
        Timing.analyze ~env:config.env lib asg)
  in
  let delays = timing.Timing.delays in
  let profiles = Array.make n [||] in
  (* one reverse-topological pass: descending ids visit every gate
     after all of its successors (the builder assigns ids in creation
     order, so a reader always has a larger id than its drivers) *)
  let prof_sp = Obs.Trace.start "serpp.profiles" in
  let brs =
    Array.init n (fun id ->
        if Circuit.is_input c id then ([||], [||])
        else brackets ctx ~delay:delays.(id))
  in
  for id = n - 1 downto 0 do
    if not (Circuit.is_input c id) then
      profiles.(id) <- profile_row ctx ~brackets:brs ~profiles id
  done;
  Obs.Trace.finish prof_sp;
  let areas = Array.make n 0. in
  let gen_width = Array.make n 0. in
  let propagated = Array.make n 0. in
  let estimate = Array.make n 0. in
  let est_sp = Obs.Trace.start "serpp.estimate" in
  let gate_evals = ref 0 in
  for id = 0 to n - 1 do
    if not (Circuit.is_input c id) then begin
      incr gate_evals;
      let cell = Assignment.get asg id in
      let node_cap = timing.Timing.loads.(id) +. Library.output_cap lib cell in
      let w_low =
        Library.generated_glitch_width lib cell ~node_cap ~charge:config.charge
          ~output_low:true
      in
      let w_high =
        Library.generated_glitch_width lib cell ~node_cap ~charge:config.charge
          ~output_low:false
      in
      areas.(id) <- Library.area lib cell;
      let wi, prop, u =
        gate_estimate ctx ~w_low ~w_high ~area:areas.(id)
          ~profile:profiles.(id) id
      in
      gen_width.(id) <- wi;
      propagated.(id) <- prop;
      estimate.(id) <- u
    end
  done;
  Obs.Metrics.add m_gate_evals !gate_evals;
  Obs.Trace.finish est_sp;
  let total = ref 0. in
  Array.iter (fun u -> total := !total +. u) estimate;
  {
    config;
    circuit = c;
    probs = ctx.c_probs;
    timing;
    samples = ctx.c_samples;
    profile_cap = ctx.c_profile_cap;
    profiles;
    areas;
    gen_width;
    propagated;
    estimate;
    total = !total;
  }

let run ?(config = default_config) lib asg =
  run_context (context config (Assignment.circuit asg)) lib asg

let gate_bound t id =
  if Circuit.is_input t.circuit id then 0.
  else t.areas.(id) *. t.profile_cap

let fail fmt = Ser_util.Diag.fail ~subsystem:"serpp" fmt

let run_checked ?(config = default_config) lib asg =
  Ser_util.Diag.guard ~subsystem:"serpp" (fun () ->
      if (not (Float.is_finite config.charge)) || config.charge <= 0. then
        fail "config.charge must be finite and positive (got %g)" config.charge;
      if config.n_samples < 2 then
        fail "config.n_samples must be >= 2 (got %d)" config.n_samples;
      if
        (not (Float.is_finite config.max_sample_width))
        || config.max_sample_width <= 0.
      then
        fail "config.max_sample_width must be finite and positive (got %g)"
          config.max_sample_width;
      (match config.latch_window with
      | Some w when (not (Float.is_finite w)) || w <= 0. ->
        fail "config.latch_window must be finite and positive (got %g)" w
      | _ -> ());
      let t = run ~config lib asg in
      let c = Assignment.circuit asg in
      let estimate =
        Array.mapi
          (fun id u ->
            if not (Float.is_finite u) then
              Ser_util.Diag.fail ~subsystem:"serpp"
                ~context:[ Ser_util.Diag.gate (Circuit.node c id).Circuit.name ]
                "non-finite per-gate estimate"
            else if u < -1e-9 then
              Ser_util.Diag.fail ~subsystem:"serpp"
                ~context:[ Ser_util.Diag.gate (Circuit.node c id).Circuit.name ]
                "negative per-gate estimate %g" u
            else Float.max 0. u)
          t.estimate
      in
      let total = Array.fold_left ( +. ) 0. estimate in
      if not (Float.is_finite total) then fail "non-finite total estimate";
      { t with estimate; total })
