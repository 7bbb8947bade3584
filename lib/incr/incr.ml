module Circuit = Ser_netlist.Circuit
module Assignment = Ser_sta.Assignment
module Sta = Ser_sta.Incr_sta
module Analysis = Aserta.Analysis
module Obs = Ser_obs.Obs
module Ser_rate = Aserta.Ser_rate

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
let m_cone = Obs.Metrics.histogram "incr.cone_gates"

type t = {
  sta : Sta.t;
      (* cells, timing and the cell/load-dependent electrical terms *)
  config : Analysis.config;
  masking : Analysis.masking;
  circuit : Circuit.t;
  samples : float array;
  context : Analysis.context;
      (* the analysis's assignment-independent WS-table contexts;
         immutable, shared by forks *)
  tables : float array array array;
  gen_width : float array;
  expected_width : float array array;
  unreliability : float array;
  (* the Eq-1 attenuation brackets of the sample grid through each
     gate's current delay (read by every driver's table recompute),
     refreshed only when the delay changes *)
  brackets : (int array * float array) array;
  rate : Ser_rate.quadrature option;
      (* the charge spectrum of a spectrum handle, with its frozen
         latching clock *)
  fit : float array;
      (* per-gate FIT under [rate], maintained like [unreliability];
         empty without a spectrum *)
  stats : stats;
}

type metrics = Sta.metrics = {
  m_unreliability : float;
  m_delay : float;
  m_energy : float;
  m_area : float;
}

(* Exactly Analysis.run_electrical's total: a plain sequential sum over
   the per-gate array in id order. *)
let total t =
  let tot = ref 0. in
  Array.iter (fun u -> tot := !tot +. u) t.unreliability;
  !tot

let refresh_brackets t id =
  t.brackets.(id) <-
    Analysis.ws_brackets ~samples:t.samples ~delay:t.sta.Sta.delays.(id)

(* Ser_rate.run's per-gate term, from the handle's state. *)
let refresh_fit t q id =
  match (t.sta.Sta.cells.(id), t.sta.Sta.glitch.(id)) with
  | Some cell, Some glitch ->
    t.fit.(id) <-
      Ser_rate.gate_rate q glitch
        ~node_cap:
          (t.sta.Sta.loads.(id) +. Ser_cell.Library.output_cap t.sta.Sta.lib cell)
        ~p1:t.masking.Analysis.probs.(id) ~area:t.sta.Sta.cell_area.(id)
        ~samples:t.samples ~po:t.circuit.Circuit.po_pos.(id)
        ~rows:t.tables.(id)
  | _ -> invalid_arg "Incr: primary input has no cell"

(* Every gate's brackets and FIT, after a from-scratch pass. *)
let refresh_all t =
  for id = 0 to Array.length t.tables - 1 do
    if not (Circuit.is_input t.circuit id) then begin
      refresh_brackets t id;
      Option.iter (fun q -> refresh_fit t q id) t.rate
    end
  done

let of_analysis ?rate lib asg (a : Analysis.t) =
  let c = Assignment.circuit asg in
  if a.Analysis.circuit != c then
    invalid_arg "Incr.of_analysis: analysis is for a different circuit";
  let n = Circuit.node_count c in
  let config = a.Analysis.config in
  let sta =
    Sta.create ~env:config.Analysis.env ~charge:config.Analysis.charge lib asg
      a.Analysis.timing
  in
  let t =
    {
      sta;
      config;
      masking = a.Analysis.masking;
      circuit = c;
      samples = a.Analysis.samples;
      context = a.Analysis.context;
      tables = Array.copy a.Analysis.tables;
      gen_width = Array.copy a.Analysis.gen_width;
      expected_width = Array.copy a.Analysis.expected_width;
      unreliability = Array.copy a.Analysis.unreliability;
      brackets = Array.make n ([||], [||]);
      rate;
      fit = (if Option.is_none rate then [||] else Array.make n 0.);
      stats = fresh_stats ();
    }
  in
  refresh_all t;
  t

let create ?rate ~config lib asg masking =
  of_analysis ?rate lib asg
    (Analysis.run_electrical config lib asg masking)

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
    fit = Array.copy t.fit;
    stats = fresh_stats ();
  }

(* The wholesale path for a change set above [Sta.wants_rebuild]'s
   threshold: a from-scratch pass on the handle's own context; yields
   the same bit-identical state as cone propagation. *)
let rebuild t changes =
  t.stats.full_rebuilds <- t.stats.full_rebuilds + 1;
  t.stats.cells_changed <- t.stats.cells_changed + List.length changes;
  Sta.set_cells t.sta changes;
  let a = Analysis.run_context t.context t.sta.Sta.lib (Sta.assignment t.sta) in
  Sta.adopt t.sta a.Analysis.timing;
  let n = Array.length t.tables in
  Array.blit a.Analysis.tables 0 t.tables 0 n;
  Array.blit a.Analysis.gen_width 0 t.gen_width 0 n;
  Array.blit a.Analysis.expected_width 0 t.expected_width 0 n;
  Array.blit a.Analysis.unreliability 0 t.unreliability 0 n;
  refresh_all t

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
        if not (Circuit.is_input c id || Circuit.is_output c id) then begin
          let nd = Circuit.node c id in
          let stale = ref false in
          Array.iter
            (fun s ->
              if delay_changed.(s) || table_changed.(s) then stale := true)
            nd.Circuit.fanout;
          if !stale then begin
            t.stats.tables_recomputed <- t.stats.tables_recomputed + 1;
            let tbl =
              Analysis.ws_table t.context ~brackets:t.brackets
                ~tables:t.tables id
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
      (* 5. per-gate unreliability (and FIT) wherever the cell, the
         node load, or the WS table actually changed; a table-only
         change reuses the cached generated glitch widths *)
      for id = 0 to n - 1 do
        if d.Sta.touched.(id) || table_changed.(id) then begin
          t.stats.gates_recomputed <- t.stats.gates_recomputed + 1;
          let wi, wij, u =
            Analysis.gate_unreliability t.context ~tables:t.tables
              ~w_low:t.sta.Sta.glitch_low.(id)
              ~w_high:t.sta.Sta.glitch_high.(id)
              ~area:t.sta.Sta.cell_area.(id) id
          in
          t.gen_width.(id) <- wi;
          t.expected_width.(id) <- wij;
          t.unreliability.(id) <- u;
          Option.iter (fun q -> refresh_fit t q id) t.rate
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

let fit t id = if Option.is_none t.rate then 0. else t.fit.(id)

let metrics t =
  let u =
    match t.rate with
    | None -> total t
    | Some _ -> Ser_util.Floatx.sum t.fit
  in
  Sta.metrics t.sta ~unreliability:u

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
    context = t.context;
  }

let stats t = t.stats
