module Circuit = Ser_netlist.Circuit
module Sta = Ser_sta.Incr_sta
module Obs = Ser_obs.Obs

type stats = {
  mutable updates : int;
  mutable cells_changed : int;
  mutable sta_recomputed : int;
  mutable sta_cutoff : int;
  mutable rows_recomputed : int;
  mutable rows_cutoff : int;
  mutable gates_recomputed : int;
  mutable full_rebuilds : int;
}

let fresh_stats () =
  {
    updates = 0;
    cells_changed = 0;
    sta_recomputed = 0;
    sta_cutoff = 0;
    rows_recomputed = 0;
    rows_cutoff = 0;
    gates_recomputed = 0;
    full_rebuilds = 0;
  }

(* A row reads its readers' delays and rows: is one of them changed,
   from the [k]-th reader on? *)
let rec stale readers delay_changed row_changed k =
  k < Array.length readers
  && (delay_changed.(readers.(k))
     || row_changed.(readers.(k))
     || stale readers delay_changed row_changed (k + 1))

let restore_stats dst src =
  dst.updates <- src.updates;
  dst.cells_changed <- src.cells_changed;
  dst.sta_recomputed <- src.sta_recomputed;
  dst.sta_cutoff <- src.sta_cutoff;
  dst.rows_recomputed <- src.rows_recomputed;
  dst.rows_cutoff <- src.rows_cutoff;
  dst.gates_recomputed <- src.gates_recomputed;
  dst.full_rebuilds <- src.full_rebuilds

module type KERNELS = sig
  type ctx
  type row
  type run
  type gates

  val name : string
  val span : string option
  val counter : string -> string
  val samples : ctx -> float array
  val readers : ctx -> int array array

  val row :
    ctx -> brackets:(int array * float array) array -> rows:row array -> int -> row

  val same_row : row -> row -> bool
  val gate : ctx -> Sta.t -> row array -> gates -> float array -> int -> unit
  val run : ctx -> Ser_cell.Library.t -> Ser_sta.Assignment.t -> run
  val parts : run -> Ser_sta.Timing.t * row array * float array
  val adopt : ctx -> Sta.t -> row array -> gates -> run -> unit
  val copy : gates -> gates
  val blit_gate : gates -> gates -> int -> unit
end

module Make (B : KERNELS) = struct
  type t = {
    sta : Sta.t;
    ctx : B.ctx;
    brackets : (int array * float array) array;  (* per delay change *)
    rows : B.row array;  (* replaced wholesale, shared by forks *)
    estimate : float array;
    gates : B.gates;
    stats : stats;
    work : work;
  }

  (* Per-handle scratch and the cone half of the undo log (the STA half
     is the core's own); a fork gets its own. *)
  and work = {
    row_changed : bool array;  (* cleared by the kernel pass *)
    mutable logging : bool;
    saved : bool array;
    log : int array;
    mutable n_log : int;
    u_brackets : (int array * float array) array;
    u_rows : B.row array;
    u_estimate : float array;
    u_gates : B.gates;
    u_stats : stats;
  }

  (* Process-wide obs probes. The per-gate loops stay free of atomics:
     [update_impl] accumulates into the handle's own [stats] and
     [update] flushes the per-update deltas in one go. *)
  let probes =
    List.map
      (fun (f, get) -> (Obs.Metrics.counter (B.counter f), get))
      [
        ("updates", fun s -> s.updates);
        ("cells_changed", fun s -> s.cells_changed);
        ("sta_recomputed", fun s -> s.sta_recomputed);
        ("sta_cutoff", fun s -> s.sta_cutoff);
        ("rows_recomputed", fun s -> s.rows_recomputed);
        ("rows_cutoff", fun s -> s.rows_cutoff);
        ("gates_recomputed", fun s -> s.gates_recomputed);
        ("full_rebuilds", fun s -> s.full_rebuilds);
      ]

  let m_cone = Obs.Metrics.histogram (B.counter "cone_gates")
  let who_update = B.name ^ ".update"
  let who_sync = B.name ^ ".sync"

  let fresh_work brackets rows estimate gates =
    let n = Array.length rows in
    {
      row_changed = Array.make n false;
      logging = false;
      saved = Array.make n false;
      log = Array.make n 0;
      n_log = 0;
      u_brackets = Array.copy brackets;
      u_rows = Array.copy rows;
      u_estimate = Array.copy estimate;
      u_gates = B.copy gates;
      u_stats = fresh_stats ();
    }

  (* Under a trial, save a node's brackets, row, estimate and kernel
     state before their first write. *)
  let save t id =
    let w = t.work in
    if w.logging && not w.saved.(id) then begin
      w.saved.(id) <- true;
      w.log.(w.n_log) <- id;
      w.n_log <- w.n_log + 1;
      w.u_brackets.(id) <- t.brackets.(id);
      w.u_rows.(id) <- t.rows.(id);
      w.u_estimate.(id) <- t.estimate.(id);
      B.blit_gate t.gates w.u_gates id
    end

  let refresh_brackets t id =
    save t id;
    t.brackets.(id) <-
      Aserta.Analysis.ws_brackets ~samples:(B.samples t.ctx)
        ~delay:t.sta.Sta.delays.(id)

  (* After the core adopted a full pass's timing and the rows and
     estimates are in place: every gate's brackets and kernel state. *)
  let adopt_rest t r =
    let c = t.sta.Sta.circuit in
    for id = 0 to Circuit.node_count c - 1 do
      if not (Circuit.is_input c id) then refresh_brackets t id
    done;
    B.adopt t.ctx t.sta t.rows t.gates r

  let make ~env ~charge lib asg ctx gates r =
    let timing, rows, estimate = B.parts r in
    let brackets = Array.make (Array.length rows) ([||], [||]) in
    let rows = Array.copy rows and estimate = Array.copy estimate in
    let t =
      {
        sta = Sta.create ~env ~charge lib asg timing;
        ctx;
        brackets;
        rows;
        estimate;
        gates;
        stats = fresh_stats ();
        work = fresh_work brackets rows estimate gates;
      }
    in
    adopt_rest t r;
    t

  let fork t =
    let brackets = Array.copy t.brackets
    and rows = Array.copy t.rows
    and estimate = Array.copy t.estimate
    and gates = B.copy t.gates in
    {
      t with
      sta = Sta.fork t.sta;
      brackets;
      rows;
      estimate;
      gates;
      stats = fresh_stats ();
      work = fresh_work brackets rows estimate gates;
    }

  (* The wholesale path for a change set above [Sta.wants_rebuild]'s
     threshold: the full pass over the handle's own context yields the
     same bit-identical state as cone propagation. *)
  let rebuild t changes =
    let n = Array.length t.rows in
    for id = 0 to n - 1 do
      save t id
    done;
    Sta.set_cells t.sta changes;
    let r = B.run t.ctx t.sta.Sta.lib (Sta.assignment t.sta) in
    let timing, rows, estimate = B.parts r in
    Sta.adopt t.sta timing;
    Array.blit rows 0 t.rows 0 n;
    Array.blit estimate 0 t.estimate 0 n;
    adopt_rest t r

  let propagate t changes =
    let c = t.sta.Sta.circuit in
    let n = Circuit.node_count c in
    let st = t.stats in
    (* loads, forward STA over the fanout cone, electrical terms *)
    let d = Sta.propagate t.sta changes in
    st.sta_recomputed <- st.sta_recomputed + d.Sta.sta_recomputed;
    st.sta_cutoff <- st.sta_cutoff + d.Sta.sta_cutoff;
    let delay_changed = d.Sta.delay_changed in
    for id = 0 to n - 1 do
      if delay_changed.(id) then refresh_brackets t id
    done;
    (* rows over the fan-in cone of the delay changes, descending ids *)
    let readers = B.readers t.ctx in
    let row_changed = t.work.row_changed in
    for id = n - 1 downto 0 do
      if
        (not (Circuit.is_input c id || Circuit.is_output c id))
        && stale readers.(id) delay_changed row_changed 0
      then begin
        st.rows_recomputed <- st.rows_recomputed + 1;
        let row = B.row t.ctx ~brackets:t.brackets ~rows:t.rows id in
        if B.same_row row t.rows.(id) then st.rows_cutoff <- st.rows_cutoff + 1
        else begin
          save t id;
          t.rows.(id) <- row;
          row_changed.(id) <- true
        end
      end
    done;
    (* the per-gate kernel wherever the cell, the node load or the row
       changed; a row-only change reuses the cached generated glitch
       widths *)
    for id = 0 to n - 1 do
      if d.Sta.touched.(id) || row_changed.(id) then begin
        row_changed.(id) <- false;
        st.gates_recomputed <- st.gates_recomputed + 1;
        save t id;
        B.gate t.ctx t.sta t.rows t.gates t.estimate id
      end
    done

  let update_impl t changes =
    let changes = Sta.changes ~who:who_update t.sta changes in
    if changes <> [] then begin
      let st = t.stats in
      st.updates <- st.updates + 1;
      st.cells_changed <- st.cells_changed + List.length changes;
      if Sta.wants_rebuild t.sta changes then begin
        st.full_rebuilds <- st.full_rebuilds + 1;
        rebuild t changes
      end
      else propagate t changes
    end

  (* [update_impl] plus one delta flush of the handle's stats into the
     process-wide counters (the rebuild path included). The cone-size
     histogram records how many gates the forward STA pass visited per
     incremental update. *)
  let update t changes =
    let s = t.stats in
    let before = { s with updates = s.updates } in
    let sp = Option.map Obs.Trace.start B.span in
    Fun.protect
      ~finally:(fun () ->
        Option.iter Obs.Trace.finish sp;
        List.iter
          (fun (c, get) ->
            if get s > get before then Obs.Metrics.add c (get s - get before))
          probes;
        if s.updates > before.updates && s.full_rebuilds = before.full_rebuilds
        then Obs.Metrics.observe m_cone (s.sta_recomputed - before.sta_recomputed))
      (fun () -> update_impl t changes)

  let update_silently t changes =
    let s = t.stats in
    let before = { s with updates = s.updates } in
    update_impl t changes;
    restore_stats s before

  let rollback t =
    let w = t.work in
    for i = 0 to w.n_log - 1 do
      let id = w.log.(i) in
      w.saved.(id) <- false;
      t.brackets.(id) <- w.u_brackets.(id);
      t.rows.(id) <- w.u_rows.(id);
      t.estimate.(id) <- w.u_estimate.(id);
      B.blit_gate w.u_gates t.gates id
    done;
    w.n_log <- 0;
    w.logging <- false;
    Sta.rollback t.sta;
    restore_stats t.stats w.u_stats

  let score t changes f =
    let w = t.work in
    Sta.begin_trial t.sta;
    w.logging <- true;
    restore_stats w.u_stats t.stats;
    Fun.protect
      ~finally:(fun () -> rollback t)
      (fun () ->
        update t changes;
        f t)

  let set_cell t g cell = update t [ (g, cell) ]
  let sync t asg = update t (Sta.diff ~who:who_sync t.sta asg)
  let assignment t = Sta.assignment t.sta
  let critical_delay t = t.sta.Sta.critical_delay

  let total t =
    let tot = ref 0. in
    for id = 0 to Array.length t.estimate - 1 do
      tot := !tot +. t.estimate.(id)
    done;
    !tot

  let stats t = t.stats
end
