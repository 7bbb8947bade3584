module Circuit = Ser_netlist.Circuit
module Assignment = Ser_sta.Assignment
module Sta = Ser_sta.Incr_sta
module Obs = Ser_obs.Obs

type stats = {
  mutable updates : int;
  mutable sta_recomputed : int;
  mutable rows_recomputed : int;
  mutable estimates_recomputed : int;
  mutable full_rebuilds : int;
}

let fresh_stats () =
  {
    updates = 0;
    sta_recomputed = 0;
    rows_recomputed = 0;
    estimates_recomputed = 0;
    full_rebuilds = 0;
  }

let m_updates = Obs.Metrics.counter "serpp.incr_updates"
let m_sta = Obs.Metrics.counter "serpp.sta_recomputed"
let m_rows = Obs.Metrics.counter "serpp.rows_recomputed"
let m_estimates = Obs.Metrics.counter "serpp.estimates_recomputed"
let m_rebuilds = Obs.Metrics.counter "serpp.full_rebuilds"

type t = {
  sta : Sta.t;
  ctx : Serpp.context;  (* assignment-independent, shared by forks *)
  brackets : (int array * float array) array;
  profiles : float array array;
      (* rows are replaced wholesale on recompute, never mutated, so
         forks share them copy-on-write *)
  estimate : float array;
  stats : stats;
}

let refresh_brackets t id =
  t.brackets.(id) <- Serpp.brackets t.ctx ~delay:t.sta.Sta.delays.(id)

(* take over the per-gate results of a from-scratch run of the core's
   current cells *)
let adopt_run t (r : Serpp.t) =
  Sta.adopt t.sta r.Serpp.timing;
  let n = Array.length t.estimate in
  Array.blit r.Serpp.profiles 0 t.profiles 0 n;
  Array.blit r.Serpp.estimate 0 t.estimate 0 n;
  for id = 0 to n - 1 do
    if not (Circuit.is_input t.ctx.Serpp.c_circuit id) then
      refresh_brackets t id
  done

let of_run ?memo lib asg (r : Serpp.t) =
  let c = Assignment.circuit asg in
  if r.Serpp.circuit != c then
    invalid_arg "Serpp_incr.of_run: run is for a different circuit";
  let config = r.Serpp.config in
  let n = Circuit.node_count c in
  let t =
    {
      sta =
        Sta.create ?memo ~env:config.Serpp.env ~charge:config.Serpp.charge lib
          asg r.Serpp.timing;
      ctx = Serpp.context ~probs:r.Serpp.probs config c;
      brackets = Array.make n ([||], [||]);
      profiles = Array.make n [||];
      estimate = Array.make n 0.;
      stats = fresh_stats ();
    }
  in
  adopt_run t r;
  t

let fork t =
  {
    t with
    sta = Sta.fork t.sta;
    brackets = Array.copy t.brackets;
    profiles = Array.copy t.profiles;
    estimate = Array.copy t.estimate;
    stats = fresh_stats ();
  }

let update_impl t changes =
  let changes = Sta.changes ~who:"Serpp_incr.update" t.sta changes in
  if changes <> [] then begin
    t.stats.updates <- t.stats.updates + 1;
    if Sta.wants_rebuild t.sta changes then begin
      t.stats.full_rebuilds <- t.stats.full_rebuilds + 1;
      Sta.set_cells t.sta changes;
      adopt_run t
        (Serpp.run_context t.ctx t.sta.Sta.lib (Sta.assignment t.sta))
    end
    else begin
      let ctx = t.ctx in
      let c = ctx.Serpp.c_circuit in
      let n = Circuit.node_count c in
      (* loads, forward STA over the fanout cone, electrical terms *)
      let d = Sta.propagate t.sta changes in
      t.stats.sta_recomputed <- t.stats.sta_recomputed + d.Sta.sta_recomputed;
      let delay_changed = d.Sta.delay_changed in
      for id = 0 to n - 1 do
        if delay_changed.(id) then refresh_brackets t id
      done;
      (* profile rows over the fan-in cone of the delay changes,
         descending ids: a row reads only its sensitizing successors'
         brackets and rows, so it is stale iff one of them has a changed
         delay or a changed row. Primary-output rows are constant.
         Cutoff: a bit-identical row does not dirty its drivers. *)
      let row_changed = Array.make n false in
      for id = n - 1 downto 0 do
        if not (Circuit.is_input c id || Circuit.is_output c id) then begin
          let succs = ctx.Serpp.c_succs.(id) in
          let stale = ref false in
          Array.iter
            (fun s -> if delay_changed.(s) || row_changed.(s) then stale := true)
            succs;
          if !stale then begin
            t.stats.rows_recomputed <- t.stats.rows_recomputed + 1;
            let row =
              Serpp.profile_row ctx ~brackets:t.brackets ~profiles:t.profiles id
            in
            if not (Sta.same_row row t.profiles.(id)) then begin
              t.profiles.(id) <- row;
              row_changed.(id) <- true
            end
          end
        end
      done;
      (* per-gate estimates wherever the cell, the node load or the
         profile changed; a profile-only change reuses the cached
         generated glitch widths *)
      let sta = t.sta in
      for id = 0 to n - 1 do
        if d.Sta.touched.(id) || row_changed.(id) then begin
          t.stats.estimates_recomputed <- t.stats.estimates_recomputed + 1;
          let _, _, u =
            Serpp.gate_estimate ctx ~w_low:sta.Sta.glitch_low.(id)
              ~w_high:sta.Sta.glitch_high.(id) ~area:sta.Sta.cell_area.(id)
              ~profile:t.profiles.(id) id
          in
          t.estimate.(id) <- u
        end
      done
    end
  end

(* [update_impl] plus one delta flush of the handle's stats into the
   process-wide counters. No trace span: the optimizer scores whole
   menus inside its own [sertopt.tier_rank] span, and a span per
   candidate would only crowd the trace buffer. *)
let update t changes =
  let s = t.stats in
  let b_updates = s.updates
  and b_sta = s.sta_recomputed
  and b_rows = s.rows_recomputed
  and b_est = s.estimates_recomputed
  and b_rebuilds = s.full_rebuilds in
  Fun.protect
    ~finally:(fun () ->
      let d c now before = if now > before then Obs.Metrics.add c (now - before) in
      d m_updates s.updates b_updates;
      d m_sta s.sta_recomputed b_sta;
      d m_rows s.rows_recomputed b_rows;
      d m_estimates s.estimates_recomputed b_est;
      d m_rebuilds s.full_rebuilds b_rebuilds)
    (fun () -> update_impl t changes)

let set_cell t g cell = update t [ (g, cell) ]
let sync t asg = update t (Sta.diff ~who:"Serpp_incr.sync" t.sta asg)

(* Exactly Serpp.run's total: a sequential sum in id order. *)
let total t =
  let tot = ref 0. in
  Array.iter (fun u -> tot := !tot +. u) t.estimate;
  !tot

let estimate t id = t.estimate.(id)
let profile t id = t.profiles.(id)
let metrics t = Sta.metrics t.sta ~unreliability:(total t)
let stats t = t.stats
