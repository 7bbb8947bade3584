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

(* Unique successor ids of a node (fanout lists one entry per pin). *)
let successors (c : Circuit.t) id =
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
  List.rev !out

let pi_weight (c : Circuit.t) masking ~gate ~succ ~po =
  let p = masking.path_probs.Probs.p in
  let denom =
    List.fold_left
      (fun acc s ->
        acc
        +. Probs.sensitization_to_driver c ~probs:masking.probs ~gate:s
             ~driver:gate
           *. p.(s).(po))
      0. (successors c gate)
  in
  if denom <= 0. then 0.
  else
    Probs.sensitization_to_driver c ~probs:masking.probs ~gate:succ ~driver:gate
    *. p.(gate).(po) /. denom

let output_positions (c : Circuit.t) =
  let po_pos = Array.make (Circuit.node_count c) (-1) in
  Array.iteri (fun pos id -> po_pos.(id) <- pos) c.outputs;
  po_pos

(* The WS table of one gate (Section 3.2). Reads the [delays] of the
   gate's successors and their already-computed rows in [tables] — and
   nothing else that depends on the cell assignment — so it is the
   shared kernel of both the from-scratch pass below and the
   incremental engine (lib/incr): recomputing a gate through this one
   function with bit-identical inputs gives bit-identical output. *)
let ws_table config masking ~samples:ws ~po_pos ~delays ~tables
    (c : Circuit.t) id =
  let n_pos = Array.length c.outputs in
  let n_samples = Array.length ws in
  let p = masking.path_probs.Probs.p in
  let t = Array.make_matrix n_pos n_samples 0. in
  if po_pos.(id) >= 0 then begin
    (* step (ii): a primary-output gate passes glitches straight to
       its own latch and, per the paper, to no other output *)
    let row = t.(po_pos.(id)) in
    Array.blit ws 0 row 0 n_samples
  end
  else begin
    (* step (iii): blend successors' expected widths with pi_isj.
       The Eq-1 attenuation and the interpolation bracket of the
       attenuated width in the sample grid depend only on the
       successor and the sample, so they are hoisted out of the
       per-output loop (the hot loop of SERTOPT's inner cost). *)
    let succs = Array.of_list (successors c id) in
    let n_succ = Array.length succs in
    let sens =
      Array.map
        (fun s ->
          Probs.sensitization_to_driver c ~probs:masking.probs ~gate:s
            ~driver:id)
        succs
    in
    (* per successor and sample: interpolation bracket of the
       attenuated width, or -1 when fully attenuated *)
    let lo = Array.make_matrix n_succ n_samples (-1) in
    let fr = Array.make_matrix n_succ n_samples 0. in
    for si = 0 to n_succ - 1 do
      let ds = delays.(succs.(si)) in
      for k = 0 to n_samples - 1 do
        let wo = Glitch.propagate ~delay:ds ~width:ws.(k) in
        if wo > 0. then begin
          let b = Ser_util.Floatx.binary_search_bracket ws wo in
          let woc =
            Ser_util.Floatx.clamp ~lo:ws.(0) ~hi:ws.(n_samples - 1) wo
          in
          lo.(si).(k) <- b;
          fr.(si).(k) <- Ser_util.Floatx.inv_lerp ws.(b) ws.(b + 1) woc
        end
      done
    done;
    for j = 0 to n_pos - 1 do
      let pij = p.(id).(j) in
      if pij > 0. then begin
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
        if denom > 0. then begin
          let row = t.(j) in
          for si = 0 to n_succ - 1 do
            let s = succs.(si) in
            let psj = p.(s).(j) in
            let weight =
              match config.split with
              | Normalized -> sens.(si) *. pij /. denom
              | Naive -> sens.(si) *. psj
            in
            if weight > 0. && psj > 0. then begin
              let s_row = tables.(s).(j) in
              let lo_s = lo.(si) and fr_s = fr.(si) in
              for k = 0 to n_samples - 1 do
                let b = Array.unsafe_get lo_s k in
                if b >= 0 then begin
                  let y0 = Array.unsafe_get s_row b in
                  let y1 = Array.unsafe_get s_row (b + 1) in
                  let v = y0 +. (Array.unsafe_get fr_s k *. (y1 -. y0)) in
                  Array.unsafe_set row k (Array.unsafe_get row k +. (weight *. v))
                end
              done
            end
          done
        end
      end
    done
  end;
  t

(* Hoisted form of [ws_table] for repeated re-evaluation of the same
   gate (the incremental engine): everything that does not depend on
   the cell assignment — the unique successors, their sensitizations,
   and the Eq-2 blend weights per (output, successor) — is computed
   once with exactly the expressions of [ws_table], so replaying the
   remaining delay-dependent part ([ws_brackets] + [ws_table_ctx])
   reproduces [ws_table]'s matrix bit for bit. *)
type ws_ctx = {
  ws_succs : int array;
  ws_pairs : (float * int) array array;
      (* per output j: the (weight, si) contributions with
         weight > 0 and P_sj > 0, in ascending si order *)
  ws_zero : float array;
      (* one shared all-zero row for the outputs with no contributions;
         rows are never mutated after publication, so aliasing it across
         matrices is safe and saves the bulk of the allocations *)
}

let make_ws_ctx config masking (c : Circuit.t) id =
  let n_pos = Array.length c.outputs in
  let p = masking.path_probs.Probs.p in
  let succs = Array.of_list (successors c id) in
  let n_succ = Array.length succs in
  let sens =
    Array.map
      (fun s ->
        Probs.sensitization_to_driver c ~probs:masking.probs ~gate:s ~driver:id)
      succs
  in
  let pairs =
    Array.init n_pos (fun j ->
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
              let psj = p.(succs.(si)).(j) in
              let weight =
                match config.split with
                | Normalized -> sens.(si) *. pij /. denom
                | Naive -> sens.(si) *. psj
              in
              if weight > 0. && psj > 0. then out := (weight, si) :: !out
            done;
            Array.of_list !out
          end
        end)
  in
  { ws_succs = succs; ws_pairs = pairs; ws_zero = Array.make config.n_samples 0. }

let ws_ctx_succs ctx = ctx.ws_succs
let ws_ctx_live ctx j = Array.length ctx.ws_pairs.(j) > 0
let ws_ctx_zero_row ctx = ctx.ws_zero

(* The Eq-1 attenuation brackets of the sample grid through one
   successor delay: for each sample width, the interpolation bracket of
   the attenuated width (or -1 when fully attenuated) and its fraction.
   Depends only on [delay] and the grid, so the incremental engine
   memoises it per delay value. *)
let ws_brackets ~samples:ws ~delay =
  let n_samples = Array.length ws in
  let lo = Array.make n_samples (-1) in
  let fr = Array.make n_samples 0. in
  for k = 0 to n_samples - 1 do
    let wo = Glitch.propagate ~delay ~width:ws.(k) in
    if wo > 0. then begin
      let b = Ser_util.Floatx.binary_search_bracket ws wo in
      let woc = Ser_util.Floatx.clamp ~lo:ws.(0) ~hi:ws.(n_samples - 1) wo in
      lo.(k) <- b;
      fr.(k) <- Ser_util.Floatx.inv_lerp ws.(b) ws.(b + 1) woc
    end
  done;
  (lo, fr)

(* [ws_table] with the context and brackets precomputed; only valid for
   a non-input, non-primary-output gate. [brackets.(si)] must be
   [ws_brackets ~samples ~delay:delays.(ws_succs.(si))]. *)
let ws_table_ctx ctx ~samples:ws ~n_pos ~brackets ~tables _c id =
  ignore id;
  let n_samples = Array.length ws in
  let zero =
    if Array.length ctx.ws_zero = n_samples then ctx.ws_zero
    else Array.make n_samples 0.
  in
  let t =
    Array.init n_pos (fun j ->
        if Array.length ctx.ws_pairs.(j) = 0 then zero
        else Array.make n_samples 0.)
  in
  for j = 0 to n_pos - 1 do
    let pairs = ctx.ws_pairs.(j) in
    if Array.length pairs > 0 then begin
      let row = t.(j) in
      Array.iter
        (fun (weight, si) ->
          let s = ctx.ws_succs.(si) in
          let s_row = tables.(s).(j) in
          let lo_s, fr_s = brackets.(si) in
          for k = 0 to n_samples - 1 do
            let b = Array.unsafe_get lo_s k in
            if b >= 0 then begin
              let y0 = Array.unsafe_get s_row b in
              let y1 = Array.unsafe_get s_row (b + 1) in
              let v = y0 +. (Array.unsafe_get fr_s k *. (y1 -. y0)) in
              Array.unsafe_set row k (Array.unsafe_get row k +. (weight *. v))
            end
          done)
        pairs
    end
  done;
  t

(* Steps (i)/(iv) + Eqs 3-4 for one gate, given the two generated
   glitch widths (strike with output low / high) and the gate area —
   the electrical LUT lookups stay with the caller so the incremental
   engine can put a memo table in front of them. Returns
   (w_i, W_ij row, U_i). *)
let gate_unreliability masking ~samples:ws ~po_pos ~tables ~n_pos ~w_low
    ~w_high ~area id =
  let p1 = masking.probs.(id) in
  let wi = ((1. -. p1) *. w_low) +. (p1 *. w_high) in
  let wij =
    Array.init n_pos (fun j ->
        if po_pos.(id) = j then wi
        else if tables.(id) = [||] then 0.
        else Lut.interpolate_1d ~xs:ws ~ys:tables.(id).(j) wi)
  in
  (wi, wij, area *. Ser_util.Floatx.sum wij)

let run_electrical config lib asg masking =
  let c = Assignment.circuit asg in
  let n = Circuit.node_count c in
  let n_pos = Array.length c.outputs in
  Obs.Metrics.incr m_analyses;
  let timing =
    Obs.Trace.with_span "aserta.sta" (fun () ->
        Timing.analyze ~env:config.env lib asg)
  in
  let ws = sample_widths config in
  (* expected output width tables per gate: WS.(id).(po).(k) *)
  let table = Array.make n [||] in
  let po_pos = output_positions c in
  let compute_table id =
    table.(id) <-
      ws_table config masking ~samples:ws ~po_pos
        ~delays:timing.Timing.delays ~tables:table c id
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
  let level = Array.make n (-1) in
  let max_level = ref 0 in
  for id = n - 1 downto 0 do
    if not (Circuit.is_input c id) then begin
      let l =
        if po_pos.(id) >= 0 then 0
        else
          List.fold_left
            (fun acc s -> max acc (level.(s) + 1))
            0 (successors c id)
      in
      level.(id) <- l;
      if l > !max_level then max_level := l
    end
  done;
  let by_level = Array.make (!max_level + 1) [] in
  for id = n - 1 downto 0 do
    if level.(id) >= 0 then by_level.(level.(id)) <- id :: by_level.(level.(id))
  done;
  Obs.Trace.with_span "aserta.ws_tables" (fun () ->
      Array.iter
        (fun ids ->
          let ids = Array.of_list ids in
          Ser_par.Par.parallel_for ~n:(Array.length ids) (fun k ->
              compute_table ids.(k)))
        by_level);
  (* generated widths, step (iv) interpolation, and Eqs 3-4; the
     per-gate pass is embarrassingly parallel, the total is summed
     sequentially in gate order afterwards *)
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
      let w_low =
        Library.generated_glitch_width lib cell ~node_cap ~charge:config.charge
          ~output_low:true
      in
      let w_high =
        Library.generated_glitch_width lib cell ~node_cap ~charge:config.charge
          ~output_low:false
      in
      let wi, wij, u =
        gate_unreliability masking ~samples:ws ~po_pos ~tables:table ~n_pos
          ~w_low ~w_high
          ~area:(Library.area lib cell)
          id
      in
      gen_width.(id) <- wi;
      expected_width.(id) <- wij;
      unreliability.(id) <- u
    end);
  let total = ref 0. in
  Array.iter (fun u -> total := !total +. u) unreliability;
  Obs.Trace.finish unrel_sp;
  {
    config;
    circuit = c;
    masking;
    timing;
    gen_width;
    expected_width;
    unreliability;
    total = !total;
    samples = ws;
    tables = table;
  }

let run ?(config = default_config) ?prune lib asg =
  let masking = compute_masking ?prune config (Assignment.circuit asg) in
  run_electrical config lib asg masking

let fail fmt = Ser_util.Diag.fail ~subsystem:"aserta" fmt

let run_checked ?(config = default_config) ?prune lib asg =
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
          config.max_sample_width;
      let t = run ~config ?prune lib asg in
      (* unreliability is a sum of probability-weighted widths: it must
         come out finite and non-negative. Sub-epsilon negatives are
         floating-point noise from the interpolation and are clamped;
         anything else is a real numerical failure. *)
      let c = Assignment.circuit asg in
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

let successor_weight t ~gate ~succ ~po =
  pi_weight t.circuit t.masking ~gate ~succ ~po

let expected_width_at t ~gate ~po ~width =
  if Circuit.is_input t.circuit gate then 0.
  else if Circuit.output_index t.circuit gate = Some po then Float.max 0. width
  else begin
    let rows = t.tables.(gate) in
    if Array.length rows = 0 then 0.
    else Lut.interpolate_1d ~xs:t.samples ~ys:rows.(po) width
  end
