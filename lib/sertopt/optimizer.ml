module Circuit = Ser_netlist.Circuit
module Gate = Ser_netlist.Gate
module Library = Ser_cell.Library
module Cell_params = Ser_device.Cell_params
module Assignment = Ser_sta.Assignment
module Timing = Ser_sta.Timing
module Incr_sta = Ser_sta.Incr_sta
module Paths = Ser_sta.Paths
module Matrix = Ser_linalg.Matrix
module Analysis = Aserta.Analysis
module Obs = Ser_obs.Obs

let m_evals = Obs.Metrics.counter "sertopt.evals"
let m_improvements = Obs.Metrics.counter "sertopt.improvements"
let m_menus = Obs.Metrics.counter "sertopt.menus"
let m_menu_evals = Obs.Metrics.counter "sertopt.menu_evals"
let m_accepts = Obs.Metrics.counter "sertopt.greedy_accepts"
let m_tier_ranks = Obs.Metrics.counter "sertopt.tier_rank_evals"
let m_exact_saved = Obs.Metrics.counter "sertopt.exact_evals_saved"
let m_odc_moves = Obs.Metrics.counter "sertopt.odc_moves"
let m_odc_accepts = Obs.Metrics.counter "sertopt.odc_accepts"
let m_sizing_trials = Obs.Metrics.counter "sta.sizing_trials"

(* How the greedy menus spend the exact evaluator. [Exact] measures
   every candidate with the engine ([Incr] cone re-analysis).
   [Serpp_prefilter k] (k >= 1) first ranks the whole menu
   with the cheap propagation-probability estimate (lib/serpp: a
   cone-limited re-estimate, scored in place on a handle that follows
   the incumbent, no vectors) and hands only the top [k] candidates
   to the exact evaluator — the saved exact evaluations are counted in
   [sertopt.exact_evals_saved]. The ranking is a heuristic: the final
   accept decision still compares exact costs only, so tiering can
   miss an improvement the estimate misranks but can never accept a
   candidate on estimated cost. *)
type tier = Exact | Serpp_prefilter of int

type config = {
  aserta : Analysis.config;
  objective : Cost.objective;
  tier : tier;
  weights : Cost.weights;
  max_evals : int;
  greedy_passes : int;
  greedy_gates : int;
  replay_guard : int;
  odc_obs : float array option;
  odc_threshold : float;
}

(* the delay-assignment search's fixed shape: rows of the topology
   matrix, search directions aimed at the highest-U_i gates plus random
   ones (drawn from [seed]), and the initial delay perturbation (ps) *)
let k_paths = 48
let n_soft_directions = 24
let n_random_directions = 8
let seed = 2005
let step = 12.

let default_config =
  {
    aserta = Analysis.default_config;
    objective = Cost.Fixed_charge;
    tier = Exact;
    weights = Cost.default_weights;
    max_evals = 400;
    greedy_passes = 2;
    greedy_gates = 160;
    replay_guard = 0;
    odc_obs = None;
    odc_threshold = 0.05;
  }

type result = {
  baseline : Assignment.t;
  optimized : Assignment.t;
  guard_choice : string option;
  baseline_metrics : Cost.metrics;
  optimized_metrics : Cost.metrics;
  baseline_analysis : Analysis.t;
  optimized_analysis : Analysis.t;
  masking : Analysis.masking;
  cost_trace : float list;
  evals : int;
  degraded : bool;
}

let unreliability_reduction r =
  1.
  -. (r.optimized_metrics.Cost.unreliability
      /. Float.max 1e-12 r.baseline_metrics.Cost.unreliability)

type knob_summary = {
  changed_gates : int;
  upsized : int;
  downsized : int;
  longer_channel : int;
  shorter_channel : int;
  vdd_raised : int;
  vdd_lowered : int;
  vth_raised : int;
  vth_lowered : int;
  vdds_used : float list;
  vths_used : float list;
}

let knob_summary r =
  let acc =
    ref
      {
        changed_gates = 0; upsized = 0; downsized = 0; longer_channel = 0;
        shorter_channel = 0; vdd_raised = 0; vdd_lowered = 0; vth_raised = 0;
        vth_lowered = 0; vdds_used = []; vths_used = [];
      }
  in
  let vdds = Hashtbl.create 4 and vths = Hashtbl.create 4 in
  Assignment.fold_gates r.optimized ~init:() ~f:(fun () id after ->
      Hashtbl.replace vdds after.Cell_params.vdd ();
      Hashtbl.replace vths after.Cell_params.vth ();
      let before = Assignment.get r.baseline id in
      if not (Cell_params.equal before after) then begin
        let a = !acc in
        acc :=
          {
            a with
            changed_gates = a.changed_gates + 1;
            upsized =
              (a.upsized + if after.Cell_params.size > before.Cell_params.size then 1 else 0);
            downsized =
              (a.downsized + if after.Cell_params.size < before.Cell_params.size then 1 else 0);
            longer_channel =
              (a.longer_channel
              + if after.Cell_params.length > before.Cell_params.length then 1 else 0);
            shorter_channel =
              (a.shorter_channel
              + if after.Cell_params.length < before.Cell_params.length then 1 else 0);
            vdd_raised =
              (a.vdd_raised + if after.Cell_params.vdd > before.Cell_params.vdd then 1 else 0);
            vdd_lowered =
              (a.vdd_lowered + if after.Cell_params.vdd < before.Cell_params.vdd then 1 else 0);
            vth_raised =
              (a.vth_raised + if after.Cell_params.vth > before.Cell_params.vth then 1 else 0);
            vth_lowered =
              (a.vth_lowered + if after.Cell_params.vth < before.Cell_params.vth then 1 else 0);
          }
      end);
  let sorted tbl = List.sort compare (Hashtbl.fold (fun k () l -> k :: l) tbl []) in
  { !acc with vdds_used = sorted vdds; vths_used = sorted vths }

let pp_knob_summary fmt s =
  let fl l = String.concat "," (List.map (Printf.sprintf "%g") l) in
  Format.fprintf fmt
    "@[<v>changed gates: %d@,size: %d up, %d down@,channel: %d longer, %d shorter@,\
     vdd: %d raised, %d lowered (used: %s)@,vth: %d raised, %d lowered (used: %s)@]"
    s.changed_gates s.upsized s.downsized s.longer_channel s.shorter_channel
    s.vdd_raised s.vdd_lowered (fl s.vdds_used) s.vth_raised s.vth_lowered
    (fl s.vths_used)

(* Deterministic exact cap on a candidate menu: evenly spaced indices
   [floor (i * len / cap)], which are strictly increasing for
   [len > cap], so the result has exactly [min cap len] elements in the
   original order (the old [i mod stride = 0] stride under-filled the
   menu whenever [len mod stride <> 0], e.g. 13 of 24 for len = 25). *)
let sample_menu ~cap xs =
  if cap <= 0 then invalid_arg "Optimizer.sample_menu: cap must be positive";
  let len = List.length xs in
  if len <= cap then xs
  else begin
    let arr = Array.of_list xs in
    List.init cap (fun i -> arr.(i * len / cap))
  end

(* The menu of gate [g] under the VDD-ordering constraint against its
   current neighbours in [asg]: a gate may not run below any successor's
   rail (a low-swing input would leave the successor's PMOS partly on)
   nor above any driver's; primary inputs are assumed driven from the
   highest rail. [keep] adds the stage's own filter. *)
let vdd_feasible_variants lib asg g ~keep =
  let c = Assignment.circuit asg in
  let nd = Circuit.node c g in
  let max_succ_vdd =
    Array.fold_left
      (fun acc s -> Float.max acc (Assignment.get asg s).Cell_params.vdd)
      0. nd.fanout
  in
  let min_driver_vdd =
    Array.fold_left
      (fun acc f ->
        if Circuit.is_input c f then acc
        else Float.min acc (Assignment.get asg f).Cell_params.vdd)
      Float.max_float nd.fanin
  in
  Library.variants lib nd.kind (Array.length nd.fanin)
  |> List.filter (fun (p : Cell_params.t) ->
         p.vdd >= max_succ_vdd -. 1e-9
         && p.vdd <= min_driver_vdd +. 1e-9
         && keep p)

(* Greedy critical-path upsizing: the baseline "speed optimization".
   Each trial is re-timed on an incremental timing-only core: the
   one-gate move is propagated through its cones under the core's undo
   log, and a rejected trial is rolled back to the saved bits. *)
let size_for_speed ?(env = Timing.default_env) ?(max_size = 8.) lib c =
  Obs.Trace.with_span "sertopt.size_for_speed" @@ fun () ->
  let asg = Assignment.uniform lib c in
  let sta = Incr_sta.create ~env lib asg (Timing.analyze ~env lib asg) in
  let sizes =
    List.filter (fun s -> s <= max_size +. 1e-9) (Library.axes lib).Library.sizes
    |> List.sort compare
  in
  let next_size s = List.find_opt (fun x -> x > s +. 1e-9) sizes in
  (* one gate at a time: upsizing the whole path at once mostly feeds
     itself through the increased pin loads *)
  let continue = ref true in
  let iter = ref 0 in
  while !continue && !iter < 60 do
    incr iter;
    let best = ref sta.Incr_sta.critical_delay in
    let path = Timing.critical_path asg (Incr_sta.timing sta) in
    let improved = ref false in
    Array.iter
      (fun id ->
        if not (Circuit.is_input c id) then begin
          let cell = Assignment.get asg id in
          match next_size cell.Cell_params.size with
          | Some s ->
            let bigger = { cell with Cell_params.size = s } in
            Obs.Metrics.incr m_sizing_trials;
            Incr_sta.begin_trial sta;
            ignore (Incr_sta.propagate sta [ (id, bigger) ]);
            let after = sta.Incr_sta.critical_delay in
            if after < !best -. 1e-9 then begin
              Incr_sta.commit sta;
              best := after;
              improved := true;
              Assignment.set asg id bigger
            end
            else Incr_sta.rollback sta
          | None -> ()
        end)
      path;
    if not !improved then continue := false
  done;
  asg

let optimize ?(config = default_config) ?masking ?budget ?initial lib baseline =
  let c = Assignment.circuit baseline in
  (match initial with
  | Some inc when Assignment.circuit inc != c ->
    invalid_arg "Optimizer.optimize: initial assignment is for a different circuit"
  | _ -> ());
  let budget_spent () =
    match budget with None -> false | Some b -> Ser_util.Budget.exhausted b
  in
  let budget_tick () =
    match budget with None -> () | Some b -> Ser_util.Budget.tick b
  in
  let n = Circuit.node_count c in
  (match config.odc_obs with
  | Some o when Array.length o <> n ->
    invalid_arg "Optimizer.optimize: odc_obs length mismatch"
  | _ -> ());
  (match config.tier with
  | Serpp_prefilter k when k < 1 ->
    invalid_arg "Optimizer.optimize: tier k must be >= 1"
  | _ -> ());
  let masking =
    match masking with
    | Some m -> m
    | None -> Analysis.compute_masking config.aserta c
  in
  (* the baseline measurement is mandatory (it anchors the cost and the
     never-worse-than-baseline gate) and charges the budget like any
     other evaluation *)
  budget_tick ();
  let baseline_metrics, baseline_analysis =
    Obs.Trace.with_span "sertopt.baseline" (fun () ->
        Cost.measure ~config:config.aserta ~masking ~objective:config.objective
          lib baseline)
  in
  if budget_spent () then
    (* nothing left for the search: the baseline itself is the valid,
       timing-feasible incumbent *)
    {
      baseline;
      optimized = baseline;
      guard_choice = None;
      baseline_metrics;
      optimized_metrics = baseline_metrics;
      baseline_analysis;
      optimized_analysis = baseline_analysis;
      masking;
      cost_trace = [];
      evals = 0;
      degraded = true;
    }
  else begin
  let clock_period =
    1.2 *. baseline_analysis.Analysis.timing.Timing.critical_delay
  in
  let evals = ref 0 in
  let measure asg =
    Cost.measure ~config:config.aserta ~masking ~objective:config.objective
      ~clock_period lib asg
  in
  (* The one evaluator (lib/incr): an engine kept in sync with the
     candidate stream by diffing, so each evaluation re-analyses only
     the cones the cell changes reach, with results bit-identical to
     [measure]. Under the charge-spectrum objective it also maintains
     the per-gate FIT at the frozen clock. *)
  let engine =
    let rate =
      match config.objective with
      | Cost.Fixed_charge -> None
      | Cost.Charge_spectrum spectrum ->
        Some (Aserta.Ser_rate.quadrature ~spectrum ~clock_period ())
    in
    Ser_incr.Incr.of_analysis ?rate lib baseline baseline_analysis
  in
  let cost_against ~baseline (m : Incr_sta.metrics) =
    Cost.eval ~weights:config.weights ~baseline
      {
        Cost.unreliability = m.Incr_sta.m_unreliability;
        delay = m.Incr_sta.m_delay;
        energy = m.Incr_sta.m_energy;
        area = m.Incr_sta.m_area;
      }
  in
  let cost_of = cost_against ~baseline:baseline_metrics in
  (* cost of a candidate assignment *)
  let eval_cost asg =
    Ser_incr.Incr.sync engine asg;
    cost_of (Ser_incr.Incr.metrics engine)
  in
  (* Score a menu of cells for gate [g]: every entry is the incumbent
     with only gate [g] changed, scored in place ([Incr.score]: the move
     is applied under an undo log and rolled back) on the engine of the
     pool slot that claims it: [engines.(0)] is the incumbent engine
     itself, the other slots score on their own copies, which
     [refine] keeps in step. The entries fan out over the lib/par pool
     ([~chunk:1]: one evaluation per claimable chunk). Returns the
     earliest strict minimiser, which reproduces the sequential
     accept-if-better scan exactly; under a budget the pool stops
     claiming entries once it expires and the incumbent so far is kept
     (graceful degradation). *)
  let best_of_menu engines g cands =
    let measured = Array.make (Array.length cands) None in
    Ser_par.Par.parallel_chunks ?budget ~chunk:1 ~n:(Array.length cands)
      (fun ~slot ~lo ~hi ->
        let e = engines.(slot) in
        for i = lo to hi - 1 do
          budget_tick ();
          measured.(i) <-
            Some
              (Ser_incr.Incr.score e [ (g, cands.(i)) ] (fun e ->
                   cost_of (Ser_incr.Incr.metrics e)))
        done);
    let best = ref None in
    Array.iteri
      (fun i r ->
        match r with
        | None -> ()
        | Some cost -> (
          incr evals;
          Obs.Metrics.incr m_evals;
          match !best with
          | Some (_, bc) when bc <= cost -> ()
          | _ -> best := Some (i, cost)))
      measured;
    !best
  in
  (* Tiered menu evaluation: the cheap ranking compares candidate
     serpp costs against a serpp-measured baseline (the delay, energy
     and area components are computed by the same Timing formulas in
     both backends, so only the unreliability anchor changes). The
     ranking handle follows the greedy incumbent; every candidate is
     scored on it in place, so a one-gate move re-runs only its cones.
     Built once, up front, only when tiering is on. *)
  let tier_ctx =
    match config.tier with
    | Exact -> None
    | Serpp_prefilter k ->
      let scfg =
        {
          Ser_serpp.Serpp.default_config with
          Ser_serpp.Serpp.charge = config.aserta.Analysis.charge;
          env = config.aserta.Analysis.env;
          pi_probs = config.aserta.Analysis.pi_probs;
        }
      in
      let base = Ser_serpp.Serpp.run ~config:scfg lib baseline in
      Some
        ( k,
          Ser_serpp.Serpp_incr.of_run lib baseline base,
          {
            baseline_metrics with
            Cost.unreliability =
              Float.max 1e-12 base.Ser_serpp.Serpp.total;
          } )
  in
  let timing0 = baseline_analysis.Analysis.timing in
  let paths = Paths.k_worst_paths baseline timing0 ~k:k_paths in
  let t_matrix, cols = Paths.topology_matrix baseline paths in
  (* project the on-path components of a full delta vector onto null(T) *)
  let project delta =
    let sub = Array.map (fun id -> delta.(id)) cols in
    let sub' = Matrix.project_onto_nullspace t_matrix sub in
    let out = Array.copy delta in
    Array.iteri (fun j id -> out.(id) <- sub'.(j)) cols;
    out
  in
  let d0 = timing0.Timing.delays in
  let matching = Matching.context lib baseline in
  let assignment_of delta =
    let targets =
      Array.init n (fun id ->
          if Circuit.is_input c id then 0.
          else Float.max 0.5 (d0.(id) +. delta.(id)))
    in
    Matching.match_delays matching ~targets
  in
  let objective delta =
    incr evals;
    Obs.Metrics.incr m_evals;
    eval_cost (assignment_of delta)
  in
  (* measure a checkpointed incumbent first, while the budget is still
     fresh — resuming must not cost more than one evaluation *)
  let incumbent =
    match initial with
    | Some inc when not (budget_spent ()) ->
      budget_tick ();
      incr evals;
      Obs.Metrics.incr m_evals;
      Some (Assignment.copy inc, eval_cost inc)
    | _ -> None
  in
  let gates =
    List.filter (fun id -> not (Circuit.is_input c id)) (List.init n Fun.id)
  in
  (* search directions: slow down the softest gates (projected), plus a
     few random projected directions *)
  let normalize v =
    let norm = sqrt (Array.fold_left (fun acc x -> acc +. (x *. x)) 0. v) in
    if norm < 1e-9 then None else Some (Array.map (fun x -> x /. norm) v)
  in
  let soft_dirs =
    List.sort
      (fun a b ->
        compare baseline_analysis.Analysis.unreliability.(b)
          baseline_analysis.Analysis.unreliability.(a))
      gates
    |> List.filteri (fun i _ -> i < n_soft_directions)
    |> List.filter_map (fun id ->
           let d = Array.make n 0. in
           d.(id) <- 1.;
           normalize (project d))
  in
  let random_dirs =
    let rng = Ser_rng.Rng.create seed in
    List.init n_random_directions (fun _ ->
        let d =
          Array.init n (fun id ->
              if Circuit.is_input c id then 0. else Ser_rng.Rng.gaussian rng)
        in
        normalize (project d))
    |> List.filter_map Fun.id
  in
  let directions = Array.of_list (soft_dirs @ random_dirs) in
  let search_sp = Obs.Trace.start "sertopt.search" in
  let search =
    Ser_opt.Minimize.direction_search ~f:objective ~x0:(Array.make n 0.)
      ~directions ~step ~shrink:0.5 ~min_step:0.75
      ~max_evals:config.max_evals ?budget ()
  in
  Obs.Trace.finish search_sp;
  (* the trace holds the start cost and every strict improvement *)
  Obs.Metrics.add m_improvements (List.length search.Ser_opt.Minimize.trace);
  (* the checkpointed incumbent was measured before the search; adopt
     it if the search did not beat it *)
  let search_assignment =
    match incumbent with
    | Some (inc, cost) when cost < search.Ser_opt.Minimize.fx -> inc
    | _ -> assignment_of search.Ser_opt.Minimize.x
  in
  (* Tier prefilter: rank the whole menu of gate [g] with the cheap
     serpp estimate and keep only the top-k (score-ascending, original
     menu order restored for the accept tie-break) for the exact
     engine. Each pool slot scores in place on its own ranking handle,
     as [best_of_menu] does on its engine. Ranking runs do not charge
     the budget — they are the economy the budget is spent through. *)
  let prefilter rank rankers g cands =
    match rank with
    | Some (k, _, sbase) when Array.length cands > k ->
      let rank_sp = Obs.Trace.start "sertopt.tier_rank" in
      let scores = Array.make (Array.length cands) 0. in
      Ser_par.Par.parallel_chunks ~chunk:1 ~n:(Array.length cands)
        (fun ~slot ~lo ~hi ->
          let h = rankers.(slot) in
          for i = lo to hi - 1 do
            scores.(i) <-
              Ser_serpp.Serpp_incr.score h [ (g, cands.(i)) ] (fun h ->
                  cost_against ~baseline:sbase (Ser_serpp.Serpp_incr.metrics h))
          done);
      Obs.Trace.finish rank_sp;
      Obs.Metrics.add m_tier_ranks (Array.length cands);
      Obs.Metrics.add m_exact_saved (Array.length cands - k);
      let idx = Array.init (Array.length cands) Fun.id in
      Array.sort
        (fun a b ->
          let cc = compare scores.(a) scores.(b) in
          if cc <> 0 then cc else compare a b)
        idx;
      let keep = Array.sub idx 0 k in
      Array.sort compare keep;
      Array.map (fun i -> cands.(i)) keep
    | _ -> cands
  in
  (* Discrete menu refinement (extension over the paper's pure
     delay-assignment method), the one walk behind the greedy and ODC
     stages. For [passes] passes it visits the gates [order ()] names
     and builds each gate's menu: the variants [keep current] admits
     under the VDD ordering against the current neighbours
     ([vdd_feasible_variants]), capped deterministically at [cap] to
     bound the eval budget and, with a ranking handle [rank], tier
     prefiltered. [scored] counts the menu. The best entry is accepted
     on a strict Eq. 5 improvement, moving the assignment, the engine
     and the ranking handle together; [accepted] counts it. Pool slots
     other than the caller's score on copies of the engine and the
     ranking handle, forked once here and advanced silently with each
     accept, so every result and counter is the same at any pool
     width. *)
  let refine ~span ~passes ~order ~keep ~cap ~rank ~scored ~accepted start =
    if passes = 0 || budget_spent () then start
    else begin
      let asg = Assignment.copy start in
      let sp = Obs.Trace.start span in
      budget_tick ();
      let cur_cost = ref (eval_cost asg) in
      Option.iter (fun (_, h, _) -> Ser_serpp.Serpp_incr.sync h asg) rank;
      let per_slot head fork =
        Array.init (Ser_par.Par.jobs ()) (fun slot ->
            if slot = 0 then head else fork head)
      in
      let engines = per_slot engine Ser_incr.Incr.fork in
      let rankers =
        match rank with
        | Some (_, h, _) -> per_slot h Ser_serpp.Serpp_incr.fork
        | None -> [||]
      in
      for _pass = 1 to passes do
        List.iter
          (fun g ->
            let current = Assignment.get asg g in
            let cands =
              vdd_feasible_variants lib asg g ~keep:(keep current)
              |> sample_menu ~cap |> Array.of_list |> prefilter rank rankers g
            in
            scored (Array.length cands);
            if Array.length cands > 0 then begin
              let menu_sp = Obs.Trace.start "sertopt.menu" in
              let best = best_of_menu engines g cands in
              Obs.Trace.finish menu_sp;
              match best with
              | Some (i, cost) when cost < !cur_cost ->
                cur_cost := cost;
                accepted ();
                Assignment.set asg g cands.(i);
                let move = [ (g, cands.(i)) ] in
                Array.iteri
                  (fun slot e ->
                    if slot = 0 then Ser_incr.Incr.update e move
                    else Ser_incr.Incr.update_silently e move)
                  engines;
                Array.iteri
                  (fun slot h ->
                    if slot = 0 then Ser_serpp.Serpp_incr.update h move
                    else Ser_serpp.Serpp_incr.update_silently h move)
                  rankers
              | _ -> ()
            end)
          (order ())
      done;
      Obs.Trace.finish sp;
      asg
    end
  in
  (* Greedy: revisit the softest gates (by the incumbent's fixed-charge
     U_i, under either objective) and try their whole variant menu. *)
  let optimized =
    refine search_assignment ~span:"sertopt.greedy" ~passes:config.greedy_passes
      ~order:(fun () ->
        List.sort
          (fun a b ->
            compare
              (Ser_incr.Incr.unreliability engine b)
              (Ser_incr.Incr.unreliability engine a))
          gates
        |> List.filteri (fun i _ -> i < config.greedy_gates))
      ~keep:(fun current (p : Cell_params.t) ->
        p.size <= Matching.default_options.Matching.max_size +. 1e-9
        && not (Cell_params.equal p current))
      ~cap:24 ~rank:tier_ctx
      ~scored:(fun k ->
        Obs.Metrics.incr m_menus;
        Obs.Metrics.add m_menu_evals k)
      ~accepted:(fun () -> Obs.Metrics.incr m_accepts)
  in
  (* ODC-seeded downsizing: gates the ODC report proves or estimates
     (near-)unobservable contribute (near-)zero unreliability whatever
     their drive strength, so shrinking them recovers energy and area
     essentially for free. The report only seeds the move list
     (lowest observability first) — every move is measured with the
     exact engine and accepted on the same Eq. 5 cost as any greedy
     move, so a misleading observability estimate can waste evaluations
     but never degrade the result. *)
  let optimized =
    match config.odc_obs with
    | None -> optimized
    | Some obs ->
      refine optimized ~span:"sertopt.odc" ~passes:1
        ~order:(fun () ->
          List.filter (fun id -> obs.(id) <= config.odc_threshold) gates
          |> List.sort (fun a b ->
                 match compare obs.(a) obs.(b) with 0 -> compare a b | r -> r))
        ~keep:(fun current (p : Cell_params.t) ->
          p.size < current.Cell_params.size -. 1e-9)
        ~cap:12 ~rank:None
        ~scored:(Obs.Metrics.add m_odc_moves)
        ~accepted:(fun () -> Obs.Metrics.incr m_odc_accepts)
  in
  (* Optional replay gate: the probabilistic objective can be gamed by
     the independence approximations on large reconvergent circuits, so
     re-judge the candidates with the independent vector-replay
     estimator and keep the one it prefers. *)
  let optimized, guard_choice =
    if config.replay_guard <= 0 || budget_spent () then (optimized, None)
    else begin
      let replay asg =
        Aserta.Measured.unreliability ~vectors:config.replay_guard
          ~charge:config.aserta.Analysis.charge ~env:config.aserta.Analysis.env
          lib asg
      in
      let candidates =
        [ ("greedy", optimized); ("search", search_assignment);
          ("baseline", baseline) ]
      in
      let scored = List.map (fun (n, a) -> (replay a, n, a)) candidates in
      let best =
        List.fold_left
          (fun (bu, bn, ba) (u, n, a) ->
            if u < bu -. 1e-9 then (u, n, a) else (bu, bn, ba))
          (match scored with x :: _ -> x | [] -> assert false)
          scored
      in
      let _, n, a = best in
      (a, Some n)
    end
  in
  let optimized_metrics, optimized_analysis =
    if optimized == baseline then (baseline_metrics, baseline_analysis)
    else measure optimized
  in
  (* never return something worse than the baseline (by the cost) *)
  let optimized, optimized_metrics, optimized_analysis, guard_choice =
    let base_cost =
      Cost.eval ~weights:config.weights ~baseline:baseline_metrics
        baseline_metrics
    in
    let opt_cost =
      Cost.eval ~weights:config.weights ~baseline:baseline_metrics
        optimized_metrics
    in
    if guard_choice = None && opt_cost >= base_cost then
      (baseline, baseline_metrics, baseline_analysis, guard_choice)
    else (optimized, optimized_metrics, optimized_analysis, guard_choice)
  in
  {
    baseline;
    optimized;
    guard_choice;
    baseline_metrics;
    optimized_metrics;
    baseline_analysis;
    optimized_analysis;
    masking;
    cost_trace = search.Ser_opt.Minimize.trace;
    evals = !evals;
    degraded =
      (match budget with
      | Some b ->
        Ser_util.Budget.was_exhausted b || Ser_util.Budget.exhausted b
      | None -> false);
  }
  end
