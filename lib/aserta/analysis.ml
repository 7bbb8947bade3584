module Circuit = Ser_netlist.Circuit
module Gate = Ser_netlist.Gate
module Probs = Ser_logicsim.Probs
module Library = Ser_cell.Library
module Assignment = Ser_sta.Assignment
module Timing = Ser_sta.Timing
module Lut = Ser_table.Lut
module Obs = Ser_obs.Obs

let m_analyses = Obs.Metrics.counter "aserta.analyses"
let m_masking_runs = Obs.Metrics.counter "aserta.masking_runs"
let m_gate_evals = Obs.Metrics.counter "aserta.gate_evals"
let m_odc_pruned = Obs.Metrics.counter "aserta.odc_pruned"
let m_stem_flips = Obs.Metrics.counter "aserta.stem_flips"

type pi_split = Normalized | Naive

type masking_backend = Monte_carlo | Analytic_masking

type config = {
  vectors : int;
  seed : int;
  charge : float;
  n_samples : int;
  max_sample_width : float;
  split : pi_split;
  masking_backend : masking_backend;
  pi_probs : float array option;
  env : Timing.env;
}

let default_config =
  {
    vectors = 10_000;
    seed = 42;
    charge = 16.;
    n_samples = 10;
    max_sample_width = 800.;
    split = Normalized;
    masking_backend = Monte_carlo;
    pi_probs = None;
    env = Timing.default_env;
  }

type masking = {
  probs : float array;
  path_probs : Probs.path_probs;
}

type context = {
  x_config : config;
  x_masking : masking;
  x_circuit : Circuit.t;
  x_samples : float array;
  x_n_pos : int;
  x_zero : float array;
      (* the one all-zero row that every dead output's table row
         aliases; rows are never mutated after publication, so sharing
         it is safe and saves the bulk of the allocations *)
  x_gates : (float * int) array array option array;
      (* per interior gate, the assignment-independent part of its WS
         table (Section 3.2, step (iii)): per output j the Eq-2 blend
         contributions (weight, successor id) with weight > 0 and
         P_sj > 0, in successor order; [None] exactly at primary inputs
         and primary outputs *)
}

type t = {
  config : config;
  circuit : Circuit.t;
  masking : masking;
  timing : Timing.t;
  gen_width : float array;
  expected_width : float array array;
  unreliability : float array;
  total : float;
  samples : float array;
  tables : float array array array;
  context : context;
}

let sample_widths config =
  if config.n_samples < 2 then invalid_arg "Analysis.sample_widths: need >= 2";
  (* geometric grid from a few ps up to the "very wide" sample *)
  Ser_util.Floatx.logspace 2. config.max_sample_width config.n_samples

let compute_masking ?prune config (c : Circuit.t) =
  Obs.Metrics.incr m_masking_runs;
  Obs.Trace.with_span "aserta.masking" (fun () ->
      let probs = Probs.signal_probabilities ?pi_probs:config.pi_probs c in
      let path_probs =
        match config.masking_backend with
        | Monte_carlo ->
          (match prune with
          | Some p ->
            Obs.Metrics.add m_odc_pruned
              (Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 p)
          | None -> ());
          let rng = Ser_rng.Rng.create config.seed in
          let pp =
            Probs.path_probabilities ?pi_probs:config.pi_probs ?prune ~rng
              ~vectors:config.vectors c
          in
          Obs.Metrics.add m_stem_flips pp.Probs.flips;
          pp
        | Analytic_masking ->
          (* The analytic backend ignores [prune]: its independence
             assumption can put nonzero P_ij on a genuinely masked
             site, so a skip would change the estimate rather than
             merely accelerate it. *)
          Probs.path_probabilities_analytic ~probs c
      in
      { probs; path_probs })

let pi_weight (c : Circuit.t) masking ~gate ~succ ~po =
  let p = masking.path_probs.Probs.p in
  let denom =
    Array.fold_left
      (fun acc s ->
        acc
        +. Probs.sensitization_to_driver c ~probs:masking.probs ~gate:s
             ~driver:gate
           *. p.(s).(po))
      0.
      (Circuit.Graph.successors (Circuit.graph c) gate)
  in
  if denom <= 0. then 0.
  else
    Probs.sensitization_to_driver c ~probs:masking.probs ~gate:succ ~driver:gate
    *. p.(gate).(po) /. denom

let gate_pairs config masking (c : Circuit.t) id =
  let p = masking.path_probs.Probs.p in
  let succs = Circuit.Graph.successors (Circuit.graph c) id in
  let n_succ = Array.length succs in
  let sens =
    Array.map
      (fun s ->
        Probs.sensitization_to_driver c ~probs:masking.probs ~gate:s ~driver:id)
      succs
  in
  Array.init (Array.length c.outputs) (fun j ->
      let pij = p.(id).(j) in
      if not (pij > 0.) then [||]
      else begin
        let denom =
          match config.split with
          | Naive -> 1.
          | Normalized ->
            let acc = ref 0. in
            for si = 0 to n_succ - 1 do
              acc := !acc +. (sens.(si) *. p.(succs.(si)).(j))
            done;
            !acc
        in
        if not (denom > 0.) then [||]
        else begin
          let out = ref [] in
          for si = n_succ - 1 downto 0 do
            let s = succs.(si) in
            let psj = p.(s).(j) in
            let weight =
              match config.split with
              | Normalized -> sens.(si) *. pij /. denom
              | Naive -> sens.(si) *. psj
            in
            if weight > 0. && psj > 0. then out := (weight, s) :: !out
          done;
          Array.of_list !out
        end
      end)

(* Every gate's context; the gates are independent, so they are built
   over the lib/par pool. *)
let context config masking (c : Circuit.t) =
  let n = Circuit.node_count c in
  let gates = Array.make n None in
  Ser_par.Par.parallel_for ~n (fun id ->
      if not (Circuit.is_input c id || Circuit.is_output c id) then
        gates.(id) <- Some (gate_pairs config masking c id));
  {
    x_config = config;
    x_masking = masking;
    x_circuit = c;
    x_samples = sample_widths config;
    x_n_pos = Array.length c.outputs;
    x_zero = Array.make config.n_samples 0.;
    x_gates = gates;
  }

(* The Eq-1 attenuation brackets of the sample grid through one gate
   delay: for each sample width, the interpolation bracket of the
   attenuated width (or -1 when fully attenuated) and its fraction.
   Depends only on [delay] and the grid, so it is computed once per
   gate delay and read by every driver of the gate. Like every per-gate
   kernel here it is plain loops over unboxed locals, with
   [Floatx.binary_search_bracket], [clamp] and [inv_lerp] written out in
   the same operation order: the calls would box their float arguments
   and results once per sample. *)
let ws_brackets ~samples:ws ~delay =
  let n_samples = Array.length ws in
  let lo = Array.make n_samples (-1) in
  let fr = Array.make n_samples 0. in
  let w_min = ws.(0) and w_max = ws.(n_samples - 1) in
  for k = 0 to n_samples - 1 do
    let wo = Glitch.propagate ~delay ~width:ws.(k) in
    if wo > 0. then begin
      let b =
        if wo <= w_min then 0
        else if wo >= w_max then n_samples - 2
        else begin
          (* invariant: ws.(l) <= wo < ws.(h) *)
          let l = ref 0 in
          let h = ref (n_samples - 1) in
          while !h - !l > 1 do
            let mid = (!l + !h) / 2 in
            if ws.(mid) <= wo then l := mid else h := mid
          done;
          !l
        end
      in
      let a = ws.(b) and z = ws.(b + 1) in
      lo.(k) <- b;
      fr.(k) <-
        (if a = z then 0.
         else if wo < w_min then (w_min -. a) /. (z -. a)
         else if wo > w_max then (w_max -. a) /. (z -. a)
         else (wo -. a) /. (z -. a))
    end
  done;
  (lo, fr)

(* The WS table of one non-input gate (Section 3.2), the one kernel of
   both the from-scratch pass below and the incremental engine
   (lib/incr): recomputing a gate with bit-identical inputs gives a
   bit-identical matrix. Reads the successors' node-indexed [brackets]
   and their rows in [tables], and nothing else that depends on the
   cell assignment. Like every per-gate kernel here it is plain loops
   over unboxed locals: no closure or tuple per gate, output or pair. *)
let ws_table x ~brackets ~tables id =
  let ws = x.x_samples in
  let n_samples = Array.length ws in
  let table = Array.make x.x_n_pos x.x_zero in
  (match x.x_gates.(id) with
  | None ->
    (* step (ii): a primary-output gate passes glitches straight to
       its own latch and, per the paper, to no other output *)
    let po = x.x_circuit.Circuit.po_pos.(id) in
    table.(po) <- Array.copy ws
  | Some by_output ->
    (* step (iii): blend the successors' expected widths at the
       attenuated sample widths with the Eq-2 weights *)
    for j = 0 to Array.length by_output - 1 do
      let pairs = by_output.(j) in
      if Array.length pairs > 0 then begin
        let row = Array.make n_samples 0. in
        for p = 0 to Array.length pairs - 1 do
          let weight, s = pairs.(p) in
          let s_row = tables.(s).(j) in
          let lo_s, fr_s = brackets.(s) in
          for k = 0 to n_samples - 1 do
            let b = Array.unsafe_get lo_s k in
            if b >= 0 then begin
              let y0 = Array.unsafe_get s_row b in
              let y1 = Array.unsafe_get s_row (b + 1) in
              let v = y0 +. (Array.unsafe_get fr_s k *. (y1 -. y0)) in
              Array.unsafe_set row k (Array.unsafe_get row k +. (weight *. v))
            end
          done
        done;
        table.(j) <- row
      end
    done);
  table

(* Steps (i)/(iv) + Eqs 3-4 for one gate, given the two generated
   glitch widths (strike with output low / high) and the gate area;
   the glitch-model queries stay with the caller, which holds the
   gate's glitch kernel. The interpolation
   bracket of [w_i] is found once for all outputs, and an output with
   no WS contributions (its table row is provably all zeros, where the
   interpolation is exactly [+0.]) returns the literal without reading
   the table. Writes w_i, the W_ij row and U_i at [id]; [clamp],
   [inv_lerp] and [lerp] are written out as in [ws_brackets]. *)
let gate_unreliability x ~tables ~w_low ~w_high ~area ~gen_width
    ~expected_width ~unreliability id =
  let p1 = x.x_masking.probs.(id) in
  let wi = ((1. -. p1) *. w_low) +. (p1 *. w_high) in
  let ws = x.x_samples in
  let n_samples = Array.length ws in
  let br = Ser_util.Floatx.binary_search_bracket ws wi in
  let w_min = ws.(0) and w_max = ws.(n_samples - 1) in
  let a = ws.(br) and z = ws.(br + 1) in
  let fr =
    if a = z then 0.
    else if wi < w_min then (w_min -. a) /. (z -. a)
    else if wi > w_max then (w_max -. a) /. (z -. a)
    else (wi -. a) /. (z -. a)
  in
  let po = x.x_circuit.Circuit.po_pos.(id) in
  let n_pos = x.x_n_pos in
  let wij = Array.make n_pos 0. in
  let live = x.x_gates.(id) in
  for j = 0 to n_pos - 1 do
    if j = po then wij.(j) <- wi
    else
      match live with
      | Some pairs when Array.length pairs.(j) > 0 ->
        let row = tables.(id).(j) in
        let y0 = row.(br) in
        wij.(j) <- y0 +. ((row.(br + 1) -. y0) *. fr)
      | Some _ | None -> ()
  done;
  gen_width.(id) <- wi;
  expected_width.(id) <- wij;
  unreliability.(id) <- area *. Ser_util.Floatx.sum wij

let run_context x lib asg =
  let c = Assignment.circuit asg in
  if c != x.x_circuit then
    invalid_arg "Analysis.run_context: assignment is for a different circuit";
  let config = x.x_config in
  let n = Circuit.node_count c in
  Obs.Metrics.incr m_analyses;
  let timing =
    Obs.Trace.with_span "aserta.sta" (fun () ->
        Timing.analyze ~env:config.env lib asg)
  in
  (* expected output width tables per gate: WS.(id).(po).(k) *)
  let table = Array.make n [||] in
  Obs.Trace.with_span "aserta.ws_tables" (fun () ->
      let brackets =
        Array.init n (fun id ->
            if Circuit.is_input c id then ([||], [||])
            else ws_brackets ~samples:x.x_samples ~delay:timing.Timing.delays.(id))
      in
      (* The WS table of a gate reads only the tables of its successors
         (and nothing at all for a primary-output gate), so the gates are
         scheduled in reverse-topological {e dependency levels}: level 0
         holds the gates whose table reads no other (primary-output gates
         and fan-out-free sinks), level [l+1] the gates all of whose
         successors sit at level <= [l]. Gates within a level are
         independent and fan out over the lib/par pool; every per-gate
         computation is untouched, so the tables are bit-identical for any
         worker count. *)
      let g = Circuit.graph c in
      let level = Array.make n (-1) in
      let max_level = ref 0 in
      for id = n - 1 downto 0 do
        if not (Circuit.is_input c id) then begin
          let l =
            if Circuit.is_output c id then 0
            else begin
              let l = ref 0 in
              for q = g.fo_off.(id) to g.fo_off.(id + 1) - 1 do
                l := max !l (level.(g.fo.(q)) + 1)
              done;
              !l
            end
          in
          level.(id) <- l;
          if l > !max_level then max_level := l
        end
      done;
      let by_level = Array.make (!max_level + 1) [] in
      for id = n - 1 downto 0 do
        if level.(id) >= 0 then by_level.(level.(id)) <- id :: by_level.(level.(id))
      done;
      Array.iter
        (fun ids ->
          let ids = Array.of_list ids in
          Ser_par.Par.parallel_for ~n:(Array.length ids) (fun k ->
              table.(ids.(k)) <- ws_table x ~brackets ~tables:table ids.(k)))
        by_level);
  (* generated widths, step (iv) interpolation, and Eqs 3-4; the
     per-gate pass is embarrassingly parallel, the total is summed
     sequentially in gate order afterwards *)
  let n_pos = x.x_n_pos in
  let gen_width = Array.make n 0. in
  let expected_width = Array.make n [||] in
  let unreliability = Array.make n 0. in
  let gate_evals = ref 0 in
  for id = 0 to n - 1 do
    if not (Circuit.is_input c id) then Stdlib.incr gate_evals
  done;
  Obs.Metrics.add m_gate_evals !gate_evals;
  let unrel_sp = Obs.Trace.start "aserta.unreliability" in
  Ser_par.Par.parallel_for ~n (fun id ->
    if Circuit.is_input c id then expected_width.(id) <- Array.make n_pos 0.
    else begin
      let cell = Assignment.get asg id in
      let node_cap = timing.Timing.loads.(id) +. Library.output_cap lib cell in
      let k = Library.glitch_kernel lib cell in
      let w_low =
        Library.glitch_width k ~node_cap ~charge:config.charge ~output_low:true
      in
      let w_high =
        Library.glitch_width k ~node_cap ~charge:config.charge ~output_low:false
      in
      gate_unreliability x ~tables:table ~w_low ~w_high
        ~area:(Library.area lib cell) ~gen_width ~expected_width ~unreliability
        id
    end);
  let total = ref 0. in
  for id = 0 to n - 1 do
    total := !total +. unreliability.(id)
  done;
  Obs.Trace.finish unrel_sp;
  {
    config;
    circuit = c;
    masking = x.x_masking;
    timing;
    gen_width;
    expected_width;
    unreliability;
    total = !total;
    samples = x.x_samples;
    tables = table;
    context = x;
  }

let run_electrical config lib asg masking =
  run_context (context config masking (Assignment.circuit asg)) lib asg

let run ?(config = default_config) ?prune lib asg =
  let masking = compute_masking ?prune config (Assignment.circuit asg) in
  run_electrical config lib asg masking

let fail fmt = Ser_util.Diag.fail ~subsystem:"aserta" fmt

let validate config =
  Ser_util.Diag.guard ~subsystem:"aserta" (fun () ->
      if config.vectors < 1 then
        fail "config.vectors must be >= 1 (got %d)" config.vectors;
      if (not (Float.is_finite config.charge)) || config.charge <= 0. then
        fail "config.charge must be finite and positive (got %g)" config.charge;
      if config.n_samples < 2 then
        fail "config.n_samples must be >= 2 (got %d)" config.n_samples;
      if
        (not (Float.is_finite config.max_sample_width))
        || config.max_sample_width <= 0.
      then
        fail "config.max_sample_width must be finite and positive (got %g)"
          config.max_sample_width)

let check t =
  Ser_util.Diag.guard ~subsystem:"aserta" (fun () ->
      (* unreliability is a sum of probability-weighted widths: it must
         come out finite and non-negative. Sub-epsilon negatives are
         floating-point noise from the interpolation and are clamped;
         anything else is a real numerical failure. *)
      let c = t.circuit in
      let unreliability =
        Array.mapi
          (fun id u ->
            if not (Float.is_finite u) then
              Ser_util.Diag.fail ~subsystem:"aserta"
                ~context:[ Ser_util.Diag.gate (Circuit.node c id).Circuit.name ]
                "non-finite per-gate unreliability"
            else if u < -1e-9 then
              Ser_util.Diag.fail ~subsystem:"aserta"
                ~context:[ Ser_util.Diag.gate (Circuit.node c id).Circuit.name ]
                "negative per-gate unreliability %g" u
            else Float.max 0. u)
          t.unreliability
      in
      let total = Array.fold_left ( +. ) 0. unreliability in
      if not (Float.is_finite total) then
        fail "non-finite total unreliability";
      { t with unreliability; total })

let run_checked ?(config = default_config) lib asg =
  let ( let* ) = Result.bind in
  let* () = validate config in
  let* t =
    Ser_util.Diag.guard ~subsystem:"aserta" (fun () -> run ~config lib asg)
  in
  check t

let successor_weight t ~gate ~succ ~po =
  pi_weight t.circuit t.masking ~gate ~succ ~po

let width_at ~samples ~own_po ~rows ~po width =
  if po = own_po then Float.max 0. width
  else Lut.interpolate_1d ~xs:samples ~ys:rows.(po) width
