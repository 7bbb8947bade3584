module Json = Ser_util.Json
module Diag = Ser_util.Diag

let or_diag = function Ok v -> v | Error d -> raise (Diag.Diag_error d)

let load_circuit (src : Request.source) =
  match src with
  | Request.Inline_bench text ->
    or_diag (Ser_netlist.Bench_format.parse_string ~name:"inline" text)
  | Request.Spec spec ->
    if Sys.file_exists spec then
      let parse =
        if Filename.check_suffix spec ".v" then
          Ser_netlist.Verilog_format.parse_file
        else Ser_netlist.Bench_format.parse_file
      in
      or_diag (parse spec)
    else if List.mem spec Ser_circuits.Iscas.names then
      Ser_circuits.Iscas.load spec
    else
      failwith
        (Printf.sprintf
           "unknown circuit %S (not a file; known benchmarks: %s)" spec
           (String.concat ", " Ser_circuits.Iscas.names))

let make_library ~vdds ~vths =
  Ser_cell.Library.create ~axes:(Request.menu_axes ~vdds ~vths) ()

let library_id lib =
  let axes = Ser_cell.Library.axes lib in
  let render vs = String.concat "," (List.map (Printf.sprintf "%.17g") vs) in
  Printf.sprintf "sizes=%s;lengths=%s;vdds=%s;vths=%s"
    (render axes.Ser_cell.Library.sizes)
    (render axes.Ser_cell.Library.lengths)
    (render axes.Ser_cell.Library.vdds)
    (render axes.Ser_cell.Library.vths)

(* Handlers ops never run at once on one prepared value (the serve
   daemon's loop is single-threaded), so a plain memo suffices. *)
type prepared = {
  circuit : Ser_netlist.Circuit.t;
  library : Ser_cell.Library.t;
  baseline : Ser_sta.Assignment.t Lazy.t;
  mutable analysis : Aserta.Analysis.t option;
}

type backend_result =
  | Aserta of Aserta.Analysis.t
  | Serpp of Ser_serpp.Serpp.t

let subsystem = "cli"

let prepare (req : Request.t) =
  Diag.guard ~subsystem (fun () ->
      let circuit = load_circuit req.Request.source in
      let library = make_library ~vdds:req.Request.vdds ~vths:req.Request.vths in
      {
        circuit;
        library;
        baseline = lazy (Sertopt.Optimizer.size_for_speed library circuit);
        analysis = None;
      })

let baseline p = Lazy.force p.baseline

(* the one place an ASERTA answer is validated. A pruned analysis is
   computed fresh and never memoized, so [aserta.odc_pruned] counts
   the sites each [--odc] run skips. *)
let checked_aserta ?prune (req : Request.t) p =
  let config =
    {
      Aserta.Analysis.default_config with
      Aserta.Analysis.vectors = req.Request.vectors;
      charge = req.Request.charge;
    }
  in
  or_diag (Aserta.Analysis.validate config);
  match p.analysis with
  | Some a when prune = None && a.Aserta.Analysis.config = config -> a
  | _ ->
    let a = Aserta.Analysis.run ~config ?prune p.library (baseline p) in
    let a = or_diag (Aserta.Analysis.check a) in
    if prune = None then p.analysis <- Some a;
    a

let analyze ?odc_report (req : Request.t) p =
  Diag.guard ~subsystem (fun () ->
      match req.Request.backend with
      | "serpp" ->
        if odc_report <> None then
          Diag.fail ~subsystem
            "the serpp backend does not consume ODC reports (its analytic \
             estimate cannot skip sites soundly)";
        let config =
          {
            Ser_serpp.Serpp.default_config with
            Ser_serpp.Serpp.charge = req.Request.charge;
          }
        in
        Serpp (or_diag (Ser_serpp.Serpp.run_checked ~config p.library (baseline p)))
      | _ ->
        let prune =
          Option.map
            (fun rep -> or_diag (Ser_odc.Odc.prune_set p.circuit rep))
            odc_report
        in
        Aserta (checked_aserta ?prune req p))

let optimize ?budget ?initial ?odc_report (req : Request.t) p =
  Diag.guard ~subsystem (fun () ->
      let baseline = baseline p in
      let initial = Option.map (fun f -> f baseline) initial in
      (* seed, input statistics and masking backend are defaults on
         both paths and masking ignores the charge, so equal vector
         counts mean equal P_ij *)
      let masking =
        match p.analysis with
        | Some a when a.config.vectors = req.Request.vectors -> Some a.masking
        | _ -> None
      in
      let odc_obs =
        Option.map
          (fun rep -> or_diag (Ser_odc.Odc.obs_array p.circuit rep))
          odc_report
      in
      let cfg =
        {
          Sertopt.Optimizer.default_config with
          Sertopt.Optimizer.aserta =
            {
              Aserta.Analysis.default_config with
              Aserta.Analysis.vectors = req.Request.vectors;
            };
          max_evals = req.Request.evals;
          greedy_passes = req.Request.greedy;
          tier =
            (match req.Request.eval_tier with
            | "serpp" -> Sertopt.Optimizer.Serpp_prefilter req.Request.tier_k
            | _ -> Sertopt.Optimizer.Exact);
          odc_obs;
          odc_threshold = req.Request.odc_threshold;
        }
      in
      let budget =
        match (budget, req.Request.budget_evals) with
        | Some b, _ -> Some b
        | None, Some n -> Some (Ser_util.Budget.create ~max_evals:n ())
        | None, None -> None
      in
      Sertopt.Optimizer.optimize ~config:cfg ?masking ?budget ?initial
        p.library baseline)

let odc (req : Request.t) p =
  Diag.guard ~subsystem (fun () ->
      let mode =
        match Ser_odc.Odc.mode_of_string req.Request.odc_mode with
        | Some m -> m
        | None ->
          Diag.fail ~subsystem "unknown odc mode %S" req.Request.odc_mode
      in
      let config =
        {
          Ser_odc.Odc.default with
          Ser_odc.Odc.mode;
          vectors = req.Request.vectors;
          seed = req.Request.odc_seed;
        }
      in
      or_diag (Ser_odc.Odc.analyze_checked ~config p.circuit))

let rate (req : Request.t) p =
  Diag.guard ~subsystem (fun () ->
      let a = checked_aserta req p in
      let spectrum =
        {
          Aserta.Ser_rate.default_spectrum with
          Aserta.Ser_rate.q_slope = req.Request.q_slope;
        }
      in
      ( a,
        Aserta.Ser_rate.run ~spectrum ?clock_period:req.Request.clock
          p.library (baseline p) a ))

(* ------------------------------ payloads -------------------------- *)

(* Indices of the [top] largest positive entries, value-descending with
   ascending-id tie-break — fully canonical, unlike a bare
   [Array.sort] whose tie order would depend on the sort algorithm. *)
let top_indices values top =
  let idx = Array.init (Array.length values) Fun.id in
  Array.sort
    (fun a b ->
      let c = compare values.(b) values.(a) in
      if c <> 0 then c else compare a b)
    idx;
  let picked = ref [] and n = ref 0 in
  Array.iter
    (fun id ->
      if !n < top && values.(id) > 0. then begin
        picked := id :: !picked;
        n := !n + 1
      end)
    idx;
  List.rev !picked

let share v total = if total > 0. then v /. total else 0.

(* both backends expose the same observable surface: per-gate
   unreliability, generated widths, signal probabilities and the
   shared STA pass *)
let backend_view = function
  | Aserta r ->
    ( r.Aserta.Analysis.circuit,
      r.Aserta.Analysis.unreliability,
      r.Aserta.Analysis.gen_width,
      r.Aserta.Analysis.masking.Aserta.Analysis.probs,
      r.Aserta.Analysis.timing,
      r.Aserta.Analysis.total )
  | Serpp s ->
    ( s.Ser_serpp.Serpp.circuit,
      s.Ser_serpp.Serpp.estimate,
      s.Ser_serpp.Serpp.gen_width,
      s.Ser_serpp.Serpp.probs,
      s.Ser_serpp.Serpp.timing,
      s.Ser_serpp.Serpp.total )

let analyze_payload (req : Request.t) p result =
  let c, values, gen_width, probs, timing, total = backend_view result in
  (* serpp has no P_ij, so only ASERTA rows carry the masking bound *)
  let masking id =
    match result with
    | Aserta r ->
      let p = r.Aserta.Analysis.masking.Aserta.Analysis.path_probs in
      [
        ( "max_path_probability",
          Json.Num (Array.fold_left Float.max 0. p.Ser_logicsim.Probs.p.(id)) );
      ]
    | Serpp _ -> []
  in
  let row id =
    let nd = Ser_netlist.Circuit.node c id in
    Json.Obj
      ([
         ("gate", Json.Str nd.Ser_netlist.Circuit.name);
         ("kind", Json.Str (Ser_netlist.Gate.to_string nd.Ser_netlist.Circuit.kind));
         ( "cell",
           Json.Str
             (Ser_device.Cell_params.to_string
                (Ser_sta.Assignment.get (baseline p) id)) );
         ("u", Json.Num values.(id));
         ("w_gen_ps", Json.Num gen_width.(id));
         ("share", Json.Num (share values.(id) total));
         ("delay_ps", Json.Num timing.Ser_sta.Timing.delays.(id));
         ("slack_ps", Json.Num timing.Ser_sta.Timing.slack.(id));
         ("signal_probability", Json.Num probs.(id));
       ]
      @ masking id)
  in
  Json.Obj
    [
      ("cmd", Json.Str "analyze");
      ("backend", Json.Str req.Request.backend);
      ("circuit", Json.Str c.Ser_netlist.Circuit.name);
      ("gates", Json.int (Ser_netlist.Circuit.gate_count c));
      ("inputs", Json.int (Array.length c.Ser_netlist.Circuit.inputs));
      ("outputs", Json.int (Array.length c.Ser_netlist.Circuit.outputs));
      ("critical_delay_ps", Json.Num timing.Ser_sta.Timing.critical_delay);
      ("total_unreliability", Json.Num total);
      ("vectors", Json.int req.Request.vectors);
      ("charge", Json.Num req.Request.charge);
      ("top", Json.List (List.map row (top_indices values req.Request.top)));
    ]

let optimize_payload (req : Request.t) (r : Sertopt.Optimizer.result) =
  let c = r.Sertopt.Optimizer.baseline_analysis.Aserta.Analysis.circuit in
  let b = r.Sertopt.Optimizer.baseline_metrics in
  let o = r.Sertopt.Optimizer.optimized_metrics in
  let rat = Sertopt.Cost.ratios ~baseline:b o in
  let k = Sertopt.Optimizer.knob_summary r in
  let nums l = Json.List (List.map (fun x -> Json.Num x) l) in
  let metrics (m : Sertopt.Cost.metrics) =
    Json.Obj
      [
        ("unreliability", Json.Num m.Sertopt.Cost.unreliability);
        ("delay_ps", Json.Num m.Sertopt.Cost.delay);
        ("energy_fj", Json.Num m.Sertopt.Cost.energy);
        ("area", Json.Num m.Sertopt.Cost.area);
      ]
  in
  Json.Obj
    [
      ("cmd", Json.Str "optimize");
      ("circuit", Json.Str c.Ser_netlist.Circuit.name);
      ("gates", Json.int (Ser_netlist.Circuit.gate_count c));
      ("vectors", Json.int req.Request.vectors);
      ("baseline", metrics b);
      ("optimized", metrics o);
      ("area_ratio", Json.Num rat.Sertopt.Cost.area);
      ("energy_ratio", Json.Num rat.Sertopt.Cost.energy);
      ("delay_ratio", Json.Num rat.Sertopt.Cost.delay);
      ( "unreliability_reduction",
        Json.Num (Sertopt.Optimizer.unreliability_reduction r) );
      ("evals", Json.int r.Sertopt.Optimizer.evals);
      ("degraded", Json.Bool r.Sertopt.Optimizer.degraded);
      ("cost_trace", nums r.Sertopt.Optimizer.cost_trace);
      ( "knobs",
        Json.Obj
          [
            ("changed_gates", Json.int k.Sertopt.Optimizer.changed_gates);
            ("upsized", Json.int k.Sertopt.Optimizer.upsized);
            ("downsized", Json.int k.Sertopt.Optimizer.downsized);
            ("longer_channel", Json.int k.Sertopt.Optimizer.longer_channel);
            ("shorter_channel", Json.int k.Sertopt.Optimizer.shorter_channel);
            ("vdd_raised", Json.int k.Sertopt.Optimizer.vdd_raised);
            ("vdd_lowered", Json.int k.Sertopt.Optimizer.vdd_lowered);
            ("vth_raised", Json.int k.Sertopt.Optimizer.vth_raised);
            ("vth_lowered", Json.int k.Sertopt.Optimizer.vth_lowered);
            ("vdds_used", nums k.Sertopt.Optimizer.vdds_used);
            ("vths_used", nums k.Sertopt.Optimizer.vths_used);
          ] );
    ]

let rate_payload (req : Request.t) ((a : Aserta.Analysis.t), r) =
  let c = a.Aserta.Analysis.circuit in
  let total = r.Aserta.Ser_rate.total in
  let top =
    top_indices r.Aserta.Ser_rate.per_gate req.Request.top
    |> List.map (fun id ->
           Json.Obj
             [
               ("gate", Json.Str (Ser_netlist.Circuit.node c id).Ser_netlist.Circuit.name);
               ("fit", Json.Num r.Aserta.Ser_rate.per_gate.(id));
               ("share", Json.Num (share r.Aserta.Ser_rate.per_gate.(id) total));
             ])
  in
  Json.Obj
    [
      ("cmd", Json.Str "rate");
      ("circuit", Json.Str c.Ser_netlist.Circuit.name);
      ("gates", Json.int (Ser_netlist.Circuit.gate_count c));
      ("total_fit", Json.Num total);
      ("clock_ps", Json.Num r.Aserta.Ser_rate.clock_period);
      ("q_slope_fc", Json.Num req.Request.q_slope);
      ("vectors", Json.int req.Request.vectors);
      ("top", Json.List top);
    ]

(* summary counts plus the full report document under "report": a
   client can save that member and feed it back to analyze --odc or
   optimize --odc unchanged *)
let odc_payload (req : Request.t) (r : Ser_odc.Odc.t) =
  let low_obs =
    Array.fold_left
      (fun acc (s : Ser_odc.Odc.site) ->
        if s.Ser_odc.Odc.obs_ub <= req.Request.odc_threshold then acc + 1
        else acc)
      0 r.Ser_odc.Odc.sites
  in
  Json.Obj
    [
      ("cmd", Json.Str "odc");
      ("circuit", Json.Str r.Ser_odc.Odc.circuit);
      ("gates", Json.int (Array.length r.Ser_odc.Odc.sites));
      ("mode", Json.Str (Ser_odc.Odc.mode_to_string r.Ser_odc.Odc.config.Ser_odc.Odc.mode));
      ("vectors", Json.int r.Ser_odc.Odc.config.Ser_odc.Odc.vectors);
      ("proven_masked", Json.int (Ser_odc.Odc.n_proven r));
      ("observed", Json.int (Ser_odc.Odc.n_observed r));
      ("sampled_unobserved", Json.int (Ser_odc.Odc.n_sampled r));
      ("threshold", Json.Num req.Request.odc_threshold);
      ("low_obs_sites", Json.int low_obs);
      ("report", Ser_odc.Odc.to_json r);
    ]

let execute ?budget (req : Request.t) p =
  match req.Request.op with
  | Request.Analyze -> Result.map (analyze_payload req p) (analyze req p)
  | Request.Optimize ->
    Result.map (optimize_payload req) (optimize ?budget req p)
  | Request.Rate -> Result.map (rate_payload req) (rate req p)
  | Request.Odc -> Result.map (odc_payload req) (odc req p)

let run ?budget req = Result.bind (prepare req) (execute ?budget req)
