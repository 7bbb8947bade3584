module Circuit = Ser_netlist.Circuit
module Assignment = Ser_sta.Assignment
module Sta = Ser_sta.Incr_sta
module Analysis = Aserta.Analysis
module Obs = Ser_obs.Obs
module Memo = Sta.Memo

let same_matrix a b =
  a == b
  ||
  let n = Array.length a in
  Array.length b = n
  &&
  let ok = ref true in
  let j = ref 0 in
  while !ok && !j < n do
    if not (Sta.same_row a.(!j) b.(!j)) then ok := false;
    incr j
  done;
  !ok

type stats = {
  mutable updates : int;
  mutable cells_changed : int;
  mutable sta_recomputed : int;
  mutable sta_cutoff : int;
  mutable tables_recomputed : int;
  mutable tables_cutoff : int;
  mutable gates_recomputed : int;
  mutable drift_snaps : int;
  mutable full_rebuilds : int;
}

let fresh_stats () =
  {
    updates = 0;
    cells_changed = 0;
    sta_recomputed = 0;
    sta_cutoff = 0;
    tables_recomputed = 0;
    tables_cutoff = 0;
    gates_recomputed = 0;
    drift_snaps = 0;
    full_rebuilds = 0;
  }

(* Process-wide obs probes. The per-gate loops below stay free of
   atomics and allocation: [update] accumulates into the engine's own
   mutable [stats] record and the wrapper flushes the per-update deltas
   into these counters in one go. *)
let m_updates = Obs.Metrics.counter "incr.updates"
let m_cells = Obs.Metrics.counter "incr.cells_changed"
let m_sta = Obs.Metrics.counter "incr.sta_recomputed"
let m_sta_cut = Obs.Metrics.counter "incr.sta_cutoff"
let m_tbl = Obs.Metrics.counter "incr.tables_recomputed"
let m_tbl_cut = Obs.Metrics.counter "incr.tables_cutoff"
let m_gates = Obs.Metrics.counter "incr.gates_recomputed"
let m_rebuilds = Obs.Metrics.counter "incr.full_rebuilds"
let m_drift = Obs.Metrics.counter "incr.drift_snaps"
let m_cone = Obs.Metrics.histogram "incr.cone_gates"

type t = {
  sta : Sta.t;
      (* cells, timing and the cell/load-dependent electrical terms *)
  config : Analysis.config;
  masking : Analysis.masking;
  circuit : Circuit.t;
  samples : float array;
  n_pos : int;
  po_pos : int array;
  ws_ctx : Analysis.ws_ctx option array;
      (* per non-input, non-PO gate: hoisted successors/sensitizations/
         weights; assignment-independent, shared by forks *)
  tables : float array array array;
  gen_width : float array;
  expected_width : float array array;
  unreliability : float array;
  (* the Eq-1 attenuation brackets of the sample grid through each
     gate's current delay (read by every driver's table recompute),
     refreshed only when the delay changes *)
  brackets : (int array * float array) array;
  (* compensated running total of [unreliability]; the authoritative
     total is always the exact sequential re-fold (see [total]) *)
  mutable kahan_sum : float;
  mutable kahan_c : float;
  stats : stats;
}

type metrics = Sta.metrics = {
  m_unreliability : float;
  m_delay : float;
  m_energy : float;
  m_area : float;
}

let kahan_add t x =
  let y = x -. t.kahan_c in
  let s = t.kahan_sum +. y in
  t.kahan_c <- (s -. t.kahan_sum) -. y;
  t.kahan_sum <- s

(* Exactly Analysis.run_electrical's total: a plain sequential sum over
   the per-gate array in id order. *)
let refold t =
  let tot = ref 0. in
  Array.iter (fun u -> tot := !tot +. u) t.unreliability;
  !tot

(* [Analysis.gate_unreliability], restated for repeated evaluation:

   - dead outputs are skipped: when the gate's WS-table row for an
     output is provably all zeros ([Analysis.ws_ctx_live] false; every
     off-position row of a primary-output gate), the original
     interpolation returns exactly [+0.] ([lerp 0. 0. t] with [t] in
     [0, 1]), so returning the literal is bit-identical and saves the
     table walk — on wide circuits most (gate, output) pairs are dead;
   - the interpolation bracket of [wi] on the sample grid is hoisted
     out of the per-output loop ([Lut.interpolate_1d] recomputes the
     same index and fraction for every output since [x = wi] is
     shared), leaving one [lerp] per live output. *)
let gate_unrel t id ~w_low ~w_high =
  let p1 = t.masking.Analysis.probs.(id) in
  let wi = ((1. -. p1) *. w_low) +. (p1 *. w_high) in
  let tbl = t.tables.(id) in
  let ws = t.samples in
  let n_samples = Array.length ws in
  let br = Ser_util.Floatx.binary_search_bracket ws wi in
  let x = Ser_util.Floatx.clamp ~lo:ws.(0) ~hi:ws.(n_samples - 1) wi in
  let fr = Ser_util.Floatx.inv_lerp ws.(br) ws.(br + 1) x in
  let wij =
    Array.init t.n_pos (fun j ->
        if t.po_pos.(id) = j then wi
        else if tbl = [||] then 0.
        else
          let live =
            match t.ws_ctx.(id) with
            | Some ctx -> Analysis.ws_ctx_live ctx j
            | None -> false
          in
          if live then
            let row = tbl.(j) in
            Ser_util.Floatx.lerp row.(br) row.(br + 1) fr
          else 0.)
  in
  (wi, wij, t.sta.Sta.cell_area.(id) *. Ser_util.Floatx.sum wij)

let refresh_brackets t id =
  t.brackets.(id) <-
    Analysis.ws_brackets ~samples:t.samples ~delay:t.sta.Sta.delays.(id)

let of_analysis ?memo lib asg (a : Analysis.t) =
  let c = Assignment.circuit asg in
  if a.Analysis.circuit != c then
    invalid_arg "Incr.of_analysis: analysis is for a different circuit";
  let n = Circuit.node_count c in
  let config = a.Analysis.config in
  let sta =
    Sta.create ?memo ~env:config.Analysis.env ~charge:config.Analysis.charge
      lib asg a.Analysis.timing
  in
  let po_pos = Analysis.output_positions c in
  (* hoist the assignment-independent part of every WS-table
     computation (successors, sensitizations, Eq-2 weights); immutable,
     so forks share it *)
  let ws_ctx =
    Array.init n (fun id ->
        if Circuit.is_input c id || po_pos.(id) >= 0 then None
        else Some (Analysis.make_ws_ctx config a.Analysis.masking c id))
  in
  let t =
    {
      sta;
      config;
      masking = a.Analysis.masking;
      circuit = c;
      samples = a.Analysis.samples;
      n_pos = Array.length c.Circuit.outputs;
      po_pos;
      ws_ctx;
      tables =
        (* re-point every provably-zero row at the gate's shared zero
           row ([ws_ctx_live] false implies the materialised row is all
           zeros under any assignment), so the first cutoff comparison
           of each table short-circuits on physical equality instead of
           scanning dead rows *)
        Array.mapi
          (fun id m ->
            match ws_ctx.(id) with
            | None -> m
            | Some ctx ->
              Array.mapi
                (fun j row ->
                  if Analysis.ws_ctx_live ctx j then row
                  else Analysis.ws_ctx_zero_row ctx)
                m)
          a.Analysis.tables;
      gen_width = Array.copy a.Analysis.gen_width;
      expected_width = Array.copy a.Analysis.expected_width;
      unreliability = Array.copy a.Analysis.unreliability;
      brackets = Array.make n ([||], [||]);
      kahan_sum = 0.;
      kahan_c = 0.;
      stats = fresh_stats ();
    }
  in
  for id = 0 to n - 1 do
    if not (Circuit.is_input c id) then refresh_brackets t id
  done;
  t.kahan_sum <- refold t;
  t

let create ?memo ~config lib asg masking =
  of_analysis ?memo lib asg (Analysis.run_electrical config lib asg masking)

let fork t =
  {
    t with
    sta = Sta.fork t.sta;
    (* spine copies: the inner rows are replaced wholesale on every
       recompute, never mutated, so sharing them is safe copy-on-write *)
    tables = Array.copy t.tables;
    gen_width = Array.copy t.gen_width;
    expected_width = Array.copy t.expected_width;
    unreliability = Array.copy t.unreliability;
    brackets = Array.copy t.brackets;
    stats = fresh_stats ();
  }

(* The wholesale path for a change set above [Sta.wants_rebuild]'s
   threshold; yields the same bit-identical state as cone propagation. *)
let rebuild t changes =
  t.stats.full_rebuilds <- t.stats.full_rebuilds + 1;
  t.stats.cells_changed <- t.stats.cells_changed + List.length changes;
  Sta.set_cells t.sta changes;
  let a =
    Analysis.run_electrical t.config t.sta.Sta.lib (Sta.assignment t.sta)
      t.masking
  in
  Sta.adopt t.sta a.Analysis.timing;
  let n = Array.length t.tables in
  Array.blit a.Analysis.tables 0 t.tables 0 n;
  Array.blit a.Analysis.gen_width 0 t.gen_width 0 n;
  Array.blit a.Analysis.expected_width 0 t.expected_width 0 n;
  Array.blit a.Analysis.unreliability 0 t.unreliability 0 n;
  for id = 0 to n - 1 do
    if not (Circuit.is_input t.circuit id) then refresh_brackets t id
  done;
  t.kahan_sum <- refold t;
  t.kahan_c <- 0.

let update_impl t changes =
  let changes = Sta.changes ~who:"Incr.update" t.sta changes in
  if changes <> [] then begin
    t.stats.updates <- t.stats.updates + 1;
    if Sta.wants_rebuild t.sta changes then rebuild t changes
    else begin
      let c = t.circuit in
      let n = Circuit.node_count c in
      t.stats.cells_changed <- t.stats.cells_changed + List.length changes;
      (* 1-3. loads, forward STA over the fanout cone, electrical terms *)
      let d = Sta.propagate t.sta changes in
      t.stats.sta_recomputed <- t.stats.sta_recomputed + d.Sta.sta_recomputed;
      t.stats.sta_cutoff <- t.stats.sta_cutoff + d.Sta.sta_cutoff;
      let delay_changed = d.Sta.delay_changed in
      for id = 0 to n - 1 do
        if delay_changed.(id) then refresh_brackets t id
      done;
      let table_changed = Array.make n false in
      (* 4. WS tables over the fanin cone of the delay changes,
         descending ids (reverse topological): a gate's table reads only
         its successors' delays and tables, so it is stale iff some
         successor has a changed delay or a changed table. Primary-output
         gates' tables are constant. Cutoff: a recomputed table that is
         bit-identical does not dirty its drivers. *)
      for id = n - 1 downto 0 do
        if (not (Circuit.is_input c id)) && t.po_pos.(id) < 0 then begin
          let nd = Circuit.node c id in
          let stale = ref false in
          Array.iter
            (fun s ->
              if delay_changed.(s) || table_changed.(s) then stale := true)
            nd.Circuit.fanout;
          if !stale then begin
            t.stats.tables_recomputed <- t.stats.tables_recomputed + 1;
            let tbl =
              match t.ws_ctx.(id) with
              | Some ctx ->
                let succs = Analysis.ws_ctx_succs ctx in
                let brackets = Array.map (fun s -> t.brackets.(s)) succs in
                Analysis.ws_table_ctx ctx ~samples:t.samples ~n_pos:t.n_pos
                  ~brackets ~tables:t.tables c id
              | None ->
                Analysis.ws_table t.config t.masking ~samples:t.samples
                  ~po_pos:t.po_pos ~delays:t.sta.Sta.delays ~tables:t.tables c
                  id
            in
            if same_matrix tbl t.tables.(id) then
              t.stats.tables_cutoff <- t.stats.tables_cutoff + 1
            else begin
              t.tables.(id) <- tbl;
              table_changed.(id) <- true
            end
          end
        end
      done;
      (* 5. per-gate unreliability wherever the cell, the node load, or
         the WS table actually changed; a table-only change reuses the
         cached generated glitch widths *)
      for id = 0 to n - 1 do
        if d.Sta.touched.(id) || table_changed.(id) then begin
          t.stats.gates_recomputed <- t.stats.gates_recomputed + 1;
          let wi, wij, u =
            gate_unrel t id ~w_low:t.sta.Sta.glitch_low.(id)
              ~w_high:t.sta.Sta.glitch_high.(id)
          in
          t.gen_width.(id) <- wi;
          t.expected_width.(id) <- wij;
          let old_u = t.unreliability.(id) in
          if not (Sta.same_bits u old_u) then begin
            kahan_add t (u -. old_u);
            t.unreliability.(id) <- u
          end
        end
      done
    end
  end

(* [update_impl] + obs: a span over the whole cone propagation and a
   single delta flush of the engine's stats into the process-wide
   counters (covers the [rebuild] path too, which [update_impl] may
   take). The cone-size histogram records how many gates the forward
   STA pass actually visited per incremental update. *)
let update t changes =
  let s = t.stats in
  let b_updates = s.updates
  and b_cells = s.cells_changed
  and b_sta = s.sta_recomputed
  and b_sta_cut = s.sta_cutoff
  and b_tbl = s.tables_recomputed
  and b_tbl_cut = s.tables_cutoff
  and b_gates = s.gates_recomputed
  and b_rebuilds = s.full_rebuilds in
  let sp = Obs.Trace.start "incr.update" in
  Fun.protect
    ~finally:(fun () ->
      Obs.Trace.finish sp;
      let d c now before = if now > before then Obs.Metrics.add c (now - before) in
      d m_updates s.updates b_updates;
      d m_cells s.cells_changed b_cells;
      d m_sta s.sta_recomputed b_sta;
      d m_sta_cut s.sta_cutoff b_sta_cut;
      d m_tbl s.tables_recomputed b_tbl;
      d m_tbl_cut s.tables_cutoff b_tbl_cut;
      d m_gates s.gates_recomputed b_gates;
      d m_rebuilds s.full_rebuilds b_rebuilds;
      if s.updates > b_updates && s.full_rebuilds = b_rebuilds then
        Obs.Metrics.observe m_cone (s.sta_recomputed - b_sta))
    (fun () -> update_impl t changes)

let set_cell t g cell = update t [ (g, cell) ]
let sync t asg = update t (Sta.diff ~who:"Incr.sync" t.sta asg)
let cell t id =
  match t.sta.Sta.cells.(id) with
  | Some p -> p
  | None -> invalid_arg "Incr.cell: primary input has no cell"
let unreliability t id = t.unreliability.(id)
let critical_delay t = t.sta.Sta.critical_delay

let total t =
  let r = refold t in
  (* drift diagnostic: the compensated running total normally agrees
     with the exact sequential fold to ~1 ulp; a larger gap means
     cancellation damage, so snap the running value back *)
  if Float.abs (t.kahan_sum -. r) > 1e-9 *. (Float.abs r +. 1.) then begin
    t.stats.drift_snaps <- t.stats.drift_snaps + 1;
    Obs.Metrics.incr m_drift;
    t.kahan_sum <- r;
    t.kahan_c <- 0.
  end;
  r

let running_total t = t.kahan_sum
let metrics t = Sta.metrics t.sta ~unreliability:(total t)
let assignment t = Sta.assignment t.sta
let timing t = Sta.timing t.sta

let snapshot t =
  {
    Analysis.config = t.config;
    circuit = t.circuit;
    masking = t.masking;
    timing = timing t;
    gen_width = Array.copy t.gen_width;
    expected_width = Array.copy t.expected_width;
    unreliability = Array.copy t.unreliability;
    total = total t;
    samples = t.samples;
    tables = Array.copy t.tables;
  }

let stats t = t.stats
let memo_stats t = Memo.stats t.sta.Sta.memo
let memo t = t.sta.Sta.memo
