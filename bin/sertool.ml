(* sertool: command-line front end for the ASERTA/SERTOPT library.

   Circuits are named either by benchmark name (c17, c432, ... -- the
   synthetic ISCAS'85-alikes) or by a path to an ISCAS .bench file. *)

(* Exit codes, so scripts can tell failure classes apart:
   0 success (including budget-degraded results -- they are still valid),
   2 input/parse errors (bad file, unknown circuit, malformed flags),
   3 numerical failures (spice/aserta diagnostics),
   4 budget diagnostics surfaced as errors. *)
let exit_ok = 0
let exit_input = 2
let exit_numerical = 3
let exit_budget = 4

(* merge found the same job id with different payloads, or a record
   whose digest does not match its payload: somebody's journal lies,
   and no merged document can be trusted *)
let exit_integrity = 5

let exit_code_of_diag (d : Ser_util.Diag.t) =
  match d.Ser_util.Diag.subsystem with
  | "spice" | "cell" | "aserta" | "sertopt" -> exit_numerical
  | "budget" -> exit_budget
  | _ -> exit_input

let render_diag d = prerr_endline ("sertool: " ^ Ser_util.Diag.to_string d)

(* -j N pins the worker-pool width for the whole process (0 =
   autodetect); the default -1 leaves the SERTOOL_JOBS variable /
   autodetection in charge. Results are bit-identical for every
   setting; see lib/par. *)
let apply_jobs j = if j >= 0 then Ser_par.Par.set_jobs j

module Obs = Ser_obs.Obs

(* --trace/--metrics: arrange the export; the files are written by the
   obs process-exit hook (and on failure degrade to a stderr
   diagnostic — observability must never take the analysis down). *)
let apply_obs (trace, metrics, sample) =
  (match trace with Some p -> Obs.set_trace_file (Some p) | None -> ());
  (match metrics with Some p -> Obs.set_metrics_file (Some p) | None -> ());
  match sample with Some n -> Obs.Trace.set_sample_every n | None -> ()

(* one-line pool summary on stderr after a heavy command, so timing
   investigations can see how the work was spread without the output
   format changing *)
let report_pool () =
  let jobs = Ser_par.Par.jobs () in
  if jobs > 1 then begin
    let count name =
      Option.fold ~none:0 ~some:Obs.Metrics.value (Obs.Metrics.find_counter name)
    in
    (* the per-slot busy gauges are registered densely from slot 0 *)
    let rec busy slot =
      match Obs.Metrics.find_gauge ("par.busy_s.slot" ^ string_of_int slot) with
      | Some g ->
        Printf.sprintf "%.3f" (Obs.Metrics.gauge_value g) :: busy (slot + 1)
      | None -> []
    in
    let sections = count "par.sections" in
    let chunks = count "par.chunks" and stolen = count "par.stolen_chunks" in
    let d =
      Ser_util.Diag.makef ~severity:Ser_util.Diag.Info ~subsystem:"par"
        ~context:
          [
            ("jobs", string_of_int jobs);
            ("sections", string_of_int sections);
            ("sequential_sections", string_of_int (count "par.sequential_sections"));
            ("chunks", string_of_int chunks);
            ("stolen_chunks", string_of_int stolen);
            ("busy_s", String.concat "," (busy 0));
          ]
        "pool executed %d parallel sections (%d chunks, %d stolen) on %d jobs"
        sections chunks stolen jobs
    in
    prerr_endline ("sertool: " ^ Ser_util.Diag.to_string d)
  end

(* user-facing failures (bad file, unknown name, located diagnostics)
   become a one-line stderr message and a classed exit code instead of
   "internal error" traces *)
let wrap f =
  try f () with
  | Ser_util.Diag.Diag_error d ->
    render_diag d;
    `Ok (exit_code_of_diag d)
  | Failure msg | Invalid_argument msg | Sys_error msg ->
    prerr_endline ("sertool: error: " ^ msg);
    `Ok exit_input

let or_diag = function Ok v -> v | Error d -> raise (Ser_util.Diag.Diag_error d)

(* The prelude every one-shot engine command shares: classed errors,
   pool width, trace/metrics export, one top-level "sertool.<name>"
   span and the pool summary at the end. *)
let one_shot name (jobs, obs) body =
  wrap @@ fun () ->
  apply_jobs jobs;
  apply_obs obs;
  Obs.Trace.with_span ("sertool." ^ name) @@ fun () ->
  body ();
  report_pool ();
  `Ok exit_ok

(* Whole-file JSON inputs: I/O errors keep the system's message, parse
   errors name the file. *)
let read_json what path =
  match Ser_util.Json.of_file path with
  | Ok j -> j
  | Error (Ser_util.Json.Io msg) -> failwith msg
  | Error (Ser_util.Json.Syntax msg) ->
    failwith (Printf.sprintf "unreadable %s %s: %s" what path msg)

let write_json path doc =
  match Ser_util.Json.to_file path doc with
  | Ok () -> Printf.printf "wrote %s\n" path
  | Error msg -> failwith msg

(* Readers of an op's document (lib/cli/handlers.ml): the text prints
   the numbers --json writes, never a second derivation of them. *)
let field conv doc k = Option.get (Option.bind (Ser_util.Json.member k doc) conv)
let member doc k = field Option.some doc k
let num doc k = field Ser_util.Json.to_float_opt doc k
let count doc k = field Ser_util.Json.to_int_opt doc k
let str doc k = field Ser_util.Json.to_str_opt doc k
let rows doc k = field Ser_util.Json.to_list_opt doc k

(* The canonical request/handler pair (lib/cli) is the single place
   that loads netlists, builds libraries and executes the three core
   operations; one-shot commands, the batch worker and the serve daemon
   all go through it. The bin side keeps only flag parsing and
   pretty-printing. *)
module Request = Ser_cli.Request
module Handlers = Ser_cli.Handlers

let load_circuit spec = Handlers.load_circuit (Request.Spec spec)

(* the request a command's flags describe: the op's defaults, overridden *)
let request op source override =
  or_diag (Request.validate (override (Request.defaults op source)))
let make_library vdds vths = Handlers.make_library ~vdds ~vths
let prepare req = or_diag (Handlers.prepare req)

(* ------------------------------------------------------------------ *)

let info_cmd spec =
  wrap @@ fun () ->
  let c = load_circuit spec in
  Format.printf "%s:@.%a@." c.Ser_netlist.Circuit.name
    Ser_netlist.Circuit.pp_stats
    (Ser_netlist.Circuit.stats c);
  `Ok exit_ok

let generate_cmd name seed format output =
  wrap @@ fun () ->
  if not (List.mem name Ser_circuits.Iscas.names) then
    failwith (Printf.sprintf "unknown benchmark %S" name)
  else begin
    let c = Ser_circuits.Iscas.load ~seed name in
    let render =
      match format with
      | "bench" -> Ser_netlist.Bench_format.to_string
      | "verilog" -> Ser_netlist.Verilog_format.to_string
      | "dot" -> Ser_netlist.Dot_export.to_dot ?annotation:None
      | other -> failwith (Printf.sprintf "unknown format %S" other)
    in
    (match output with
    | Some path ->
      let oc = open_out path in
      output_string oc (render c);
      close_out oc;
      Printf.printf "wrote %s (%d gates)\n" path
        (Ser_netlist.Circuit.gate_count c)
    | None -> print_string (render c));
    `Ok exit_ok
  end

(* An ODC report on disk is the JSON document "sertool odc -o" wrote
   (or the "report" member of the odc payload); its digest binds it to
   one netlist, so feeding it to the wrong circuit is a typed error,
   not a silent wrong answer. *)
let load_odc_report path =
  let j = read_json "ODC report" path in
  (* accept the whole odc payload too, not just the bare report *)
  let j = match Ser_util.Json.member "report" j with Some r -> r | None -> j in
  or_diag (Ser_odc.Odc.of_json j)

let analyze_cmd run spec override odc json dot =
  one_shot "analyze" run @@ fun () ->
  let req = request Request.Analyze (Request.Spec spec) override in
  let odc_report = Option.map load_odc_report odc in
  let t0 = Unix.gettimeofday () in
  let p = prepare req in
  let result = or_diag (Handlers.analyze ?odc_report req p) in
  let dt = Unix.gettimeofday () -. t0 in
  let doc = Handlers.analyze_payload req p result in
  Printf.printf "circuit %s: %d gates, critical delay %.1f ps\n"
    (str doc "circuit") (count doc "gates") (num doc "critical_delay_ps");
  let total = num doc "total_unreliability" and charge = num doc "charge" in
  (match str doc "backend" with
  | "serpp" ->
    Printf.printf
      "total unreliability U = %.1f  (serpp single-pass estimate, %.1f fC, \
       %.2f s)\n\n"
      total charge dt
  | _ ->
    Printf.printf
      "total unreliability U = %.1f  (%d vectors, %.1f fC, %.2f s)\n\n" total
      (count doc "vectors") charge dt);
  (match odc with
  | Some path ->
    let pruned =
      match Obs.Metrics.find_counter "aserta.odc_pruned" with
      | Some ctr -> Obs.Metrics.value ctr
      | None -> 0
    in
    Printf.printf "odc: pruned %d provably-masked fault sites (report %s)\n"
      pruned path
  | None -> ());
  Printf.printf "top %d softest gates:\n" req.Request.top;
  let tbl =
    Ser_util.Ascii_table.create
      ~aligns:[ Ser_util.Ascii_table.Left; Ser_util.Ascii_table.Left ]
      [ "gate"; "cell"; "U_i"; "w_gen (ps)"; "share" ]
  in
  List.iter
    (fun g ->
      Ser_util.Ascii_table.add_row tbl
        [
          str g "gate";
          str g "cell";
          Printf.sprintf "%.1f" (num g "u");
          Printf.sprintf "%.1f" (num g "w_gen_ps");
          Printf.sprintf "%.1f%%" (100. *. num g "share");
        ])
    (rows doc "top");
  Ser_util.Ascii_table.print tbl;
  Option.iter (fun path -> write_json path doc) json;
  (match dot with
  | Some path ->
    (* the heat map colours every gate, not just the document's top *)
    let c, values, _, _, _, _ = Handlers.backend_view result in
    let u_max = Array.fold_left Float.max 1e-12 values in
    let annotation =
      {
        Ser_netlist.Dot_export.label =
          (fun id ->
            if Ser_netlist.Circuit.is_input c id then None
            else Some (Printf.sprintf "U=%.1f" values.(id)));
        heat = (fun id -> values.(id) /. u_max);
      }
    in
    Ser_netlist.Dot_export.write_dot ~annotation path c;
    Printf.printf "wrote %s\n" path
  | None -> ())

let odc_cmd run spec override output =
  one_shot "odc" run @@ fun () ->
  let req = request Request.Odc (Request.Spec spec) override in
  let t0 = Unix.gettimeofday () in
  let r = or_diag (Handlers.odc req (prepare req)) in
  let dt = Unix.gettimeofday () -. t0 in
  print_string (Ser_odc.Odc.render r);
  Printf.printf
    "%d sites: %d proven masked, %d observed, %d sampled-unobserved (%.2f s)\n"
    (Array.length r.Ser_odc.Odc.sites)
    (Ser_odc.Odc.n_proven r) (Ser_odc.Odc.n_observed r)
    (Ser_odc.Odc.n_sampled r) dt;
  (* the bare report document, not the payload wrapper: this is the
     file analyze/optimize --odc consume *)
  Option.iter (fun path -> write_json path (Ser_odc.Odc.to_json r)) output

let optimize_cmd run spec override timeout checkpoint odc output json =
  one_shot "optimize" run @@ fun () ->
  let req = request Request.Optimize (Request.Spec spec) override in
  let odc_report = Option.map load_odc_report odc in
  (* a budget always exists so that SIGINT/SIGTERM can cancel it: the
     optimizer then stops at its next poll and returns the best-so-far
     incumbent, which flushes the checkpoint and prints the partial
     summary instead of discarding the run *)
  let budget =
    Ser_util.Budget.create ?max_evals:req.Request.budget_evals
      ?max_seconds:timeout ()
  in
  (* the checkpoint is restored onto the baseline the handler sizes, so
     the circuit is loaded and sized once *)
  let initial =
    match checkpoint with
    | Some path when Sys.file_exists path ->
      Some
        (fun baseline ->
          let cp = or_diag (Sertopt.Checkpoint.restore path ~base:baseline) in
          Printf.printf "resuming from checkpoint %s (%d evals%s)\n" path
            cp.Sertopt.Checkpoint.evals
            (match cp.Sertopt.Checkpoint.cost with
            | Some v -> Printf.sprintf ", cost %.4f" v
            | None -> "");
          cp.Sertopt.Checkpoint.assignment)
    | _ -> None
  in
  let restore_signals =
    let handler =
      Sys.Signal_handle (fun _ -> Ser_util.Budget.cancel budget)
    in
    let prev_int = Sys.signal Sys.sigint handler in
    let prev_term = Sys.signal Sys.sigterm handler in
    fun () ->
      Sys.set_signal Sys.sigint prev_int;
      Sys.set_signal Sys.sigterm prev_term
  in
  let t0 = Unix.gettimeofday () in
  let r =
    Fun.protect ~finally:restore_signals (fun () ->
        or_diag
          (Handlers.optimize ~budget ?initial ?odc_report req (prepare req)))
  in
  let dt = Unix.gettimeofday () -. t0 in
  let interrupted = Ser_util.Budget.was_cancelled budget in
  if interrupted then
    print_endline
      "interrupted (SIGINT/SIGTERM): returning the best-so-far incumbent; \
       partial summary and checkpoint follow";
  let doc = Handlers.optimize_payload req r in
  Printf.printf "unreliability: %.1f -> %.1f  (decrease %.1f%%)\n"
    (num (member doc "baseline") "unreliability")
    (num (member doc "optimized") "unreliability")
    (100. *. num doc "unreliability_reduction");
  Printf.printf "area %.2fX  energy %.2fX  delay %.2fX  (%d cost evals, %.1f s)\n"
    (num doc "area_ratio") (num doc "energy_ratio") (num doc "delay_ratio")
    (count doc "evals") dt;
  if Ser_util.Json.member "degraded" doc = Some (Ser_util.Json.Bool true) then
    print_endline
      "budget exhausted: result is the best incumbent found so far (degraded)";
  (match odc with
  | Some _ ->
    let v name =
      match Obs.Metrics.find_counter name with
      | Some c -> Obs.Metrics.value c
      | None -> 0
    in
    Printf.printf "odc stage: %d downsizing candidates proposed, %d accepted\n"
      (v "sertopt.odc_moves") (v "sertopt.odc_accepts")
  | None -> ());
  (match checkpoint with
  | None -> ()
  | Some path ->
    let cost =
      Sertopt.Cost.eval ~baseline:r.Sertopt.Optimizer.baseline_metrics
        r.Sertopt.Optimizer.optimized_metrics
    in
    or_diag
      (Sertopt.Checkpoint.save path ~cost ~evals:r.Sertopt.Optimizer.evals
         r.Sertopt.Optimizer.optimized);
    Printf.printf "wrote checkpoint %s\n" path);
  Format.printf "%a@."
    Sertopt.Optimizer.pp_knob_summary
    (Sertopt.Optimizer.knob_summary r);
  (match output with
  | None -> ()
  | Some path ->
    let c = r.Sertopt.Optimizer.baseline_analysis.Aserta.Analysis.circuit in
    let oc = open_out path in
    Printf.fprintf oc "# optimized cell assignment for %s\n"
      c.Ser_netlist.Circuit.name;
    Ser_sta.Assignment.fold_gates r.Sertopt.Optimizer.optimized ~init:()
      ~f:(fun () id cell ->
        Printf.fprintf oc "%s: %s\n"
          (Ser_netlist.Circuit.node c id).Ser_netlist.Circuit.name
          (Ser_device.Cell_params.to_string cell));
    close_out oc;
    Printf.printf "wrote %s\n" path);
  Option.iter (fun path -> write_json path doc) json

let rate_cmd run spec override =
  one_shot "rate" run @@ fun () ->
  let req = request Request.Rate (Request.Spec spec) override in
  let doc = or_diag (Handlers.run req) in
  Printf.printf
    "%s: SER = %.2f FIT (synthetic flux normalisation)\n\
     clock %.0f ps, exponential charge spectrum with Qs = %.1f fC\n\n"
    (str doc "circuit") (num doc "total_fit") (num doc "clock_ps")
    (num doc "q_slope_fc");
  Printf.printf "top %d contributors:\n" req.Request.top;
  List.iter
    (fun g ->
      Printf.printf "  %-12s %8.3f FIT (%.1f%%)\n" (str g "gate") (num g "fit")
        (100. *. num g "share"))
    (rows doc "top")

let xval_cmd run spec corpus vectors charge top json =
  one_shot "xval" run @@ fun () ->
  match corpus with
  | None ->
    let r = Ser_repro.Xval.run ~circuit:spec ~vectors ~charge ~top_n:top () in
    print_string (Ser_repro.Xval.render r);
    Option.iter (fun path -> write_json path (Ser_repro.Xval.to_json r)) json
  | Some dir ->
    (* every .bench in the directory, name order — deterministic both
       in which circuits run and in the row order of the table *)
    let entries =
      try Sys.readdir dir
      with Sys_error msg -> failwith msg
    in
    let benches =
      Array.to_list entries
      |> List.filter (fun f -> Filename.check_suffix f ".bench")
      |> List.sort compare
    in
    if benches = [] then
      failwith (Printf.sprintf "no .bench files in %s" dir);
    let results =
      List.map
        (fun f ->
          let c = load_circuit (Filename.concat dir f) in
          Ser_repro.Xval.run_circuit ~vectors ~charge ~top_n:top c)
        benches
    in
    print_string (Ser_repro.Xval.render_corpus results);
    Option.iter
      (fun path -> write_json path (Ser_repro.Xval.corpus_to_json results))
      json

let harden_cmd jobs spec method_ fraction output =
  wrap @@ fun () ->
  apply_jobs jobs;
  let c = load_circuit spec in
  let hardened =
    match method_ with
    | "tmr" -> Ser_harden.Transforms.tmr c
    | "ced" -> Ser_harden.Transforms.duplicate_with_compare c
    | "ptmr" ->
      let lib = make_library [] [] in
      let asg = Ser_sta.Assignment.uniform lib c in
      let cfg =
        { Aserta.Analysis.default_config with Aserta.Analysis.vectors = 3000 }
      in
      let analysis = Aserta.Analysis.run ~config:cfg lib asg in
      let protect = Ser_harden.Transforms.softest_gates analysis ~fraction in
      Ser_harden.Transforms.selective_tmr c ~protect
    | other -> failwith (Printf.sprintf "unknown method %S (tmr|ptmr|ced)" other)
  in
  Printf.printf "%s: %d gates -> %s: %d gates (%.2fX)\n" c.Ser_netlist.Circuit.name
    (Ser_netlist.Circuit.gate_count c)
    hardened.Ser_netlist.Circuit.name
    (Ser_netlist.Circuit.gate_count hardened)
    (float_of_int (Ser_netlist.Circuit.gate_count hardened)
    /. float_of_int (Ser_netlist.Circuit.gate_count c));
  (match output with
  | Some path ->
    Ser_netlist.Bench_format.write_file path hardened;
    Printf.printf "wrote %s\n" path
  | None -> print_string (Ser_netlist.Bench_format.to_string hardened));
  `Ok exit_ok

let pipeline_cmd jobs spec stages clock =
  wrap @@ fun () ->
  apply_jobs jobs;
  let c = load_circuit spec in
  let lib = make_library [] [] in
  let slices =
    if stages = 1 then [ c ]
    else Ser_pipeline.Pipeline.split_by_levels c ~stages
  in
  let p = Ser_pipeline.Pipeline.create ~lib slices in
  let aserta =
    { Aserta.Analysis.default_config with Aserta.Analysis.vectors = 2000 }
  in
  let r = Ser_pipeline.Pipeline.analyze ~aserta ~lib ?clock_period:clock p in
  Printf.printf
    "%s as a %d-stage pipeline: clock %.0f ps (min %.0f ps), %d flip-flops\n"
    c.Ser_netlist.Circuit.name stages r.Ser_pipeline.Pipeline.clock_period
    r.Ser_pipeline.Pipeline.min_period
    (Ser_pipeline.Pipeline.flipflop_count p);
  List.iter
    (fun (sn, v) -> Printf.printf "  %-24s SER %10.2f\n" sn v)
    r.Ser_pipeline.Pipeline.stage_ser;
  Printf.printf "  %-24s SER %10.2f\n" "flip-flops" r.Ser_pipeline.Pipeline.ff_ser;
  Printf.printf "  %-24s SER %10.2f\n" "total" r.Ser_pipeline.Pipeline.total;
  report_pool ();
  `Ok exit_ok

let timing_cmd jobs spec n_paths axes =
  wrap @@ fun () ->
  apply_jobs jobs;
  let p = prepare (request Request.Analyze (Request.Spec spec) axes) in
  let c = p.Handlers.circuit and asg = Handlers.baseline p in
  let t = Ser_sta.Timing.analyze p.Handlers.library asg in
  Printf.printf "%s: critical delay %.1f ps across %d gates (depth %d)\n\n"
    c.Ser_netlist.Circuit.name t.Ser_sta.Timing.critical_delay
    (Ser_netlist.Circuit.gate_count c)
    (Ser_netlist.Circuit.depth c);
  let paths = Ser_sta.Paths.k_worst_paths asg t ~k:n_paths in
  Array.iteri
    (fun rank path ->
      Printf.printf "path %d: delay %.1f ps\n" (rank + 1)
        (Ser_sta.Paths.path_delay t path);
      Array.iter
        (fun id ->
          let nd = Ser_netlist.Circuit.node c id in
          if nd.Ser_netlist.Circuit.kind = Ser_netlist.Gate.Input then
            Printf.printf "  %-12s (input)                      arrival %8.1f\n"
              nd.Ser_netlist.Circuit.name t.Ser_sta.Timing.arrival.(id)
          else
            Printf.printf "  %-12s %-28s delay %6.1f  arrival %8.1f  slack %6.1f\n"
              nd.Ser_netlist.Circuit.name
              (Ser_device.Cell_params.to_string (Ser_sta.Assignment.get asg id))
              t.Ser_sta.Timing.delays.(id)
              t.Ser_sta.Timing.arrival.(id)
              t.Ser_sta.Timing.slack.(id))
        path;
      print_newline ())
    paths;
  `Ok exit_ok

let export_deck_cmd spec strike vector charge output =
  wrap @@ fun () ->
  let p = prepare (Request.defaults Request.Analyze (Request.Spec spec)) in
  let c = p.Handlers.circuit and asg = Handlers.baseline p in
  let strike_id =
    match Ser_netlist.Circuit.find_by_name c strike with
    | Some id -> id
    | None -> failwith (Printf.sprintf "no gate named %S" strike)
  in
  let n_in = Array.length c.Ser_netlist.Circuit.inputs in
  let input_values =
    match vector with
    | Some bits ->
      if String.length bits <> n_in then
        failwith (Printf.sprintf "vector needs %d bits" n_in);
      Array.init n_in (fun i -> bits.[i] = '1')
    | None ->
      let rng = Ser_rng.Rng.create 1 in
      Array.init n_in (fun _ -> Ser_rng.Rng.bool rng)
  in
  let config =
    { Ser_spice.Circuit_sim.default_config with Ser_spice.Circuit_sim.charge }
  in
  Ser_spice.Deck_export.write_strike_deck ~config output c
    ~assignment:(Ser_sta.Assignment.get asg) ~input_values ~strike:strike_id;
  Printf.printf "wrote %s (strike on %s)\n" output strike;
  `Ok exit_ok

let export_lib_cmd kind fanin output =
  wrap @@ fun () ->
  match Ser_netlist.Gate.of_string kind with
  | None | Some Ser_netlist.Gate.Input ->
    failwith (Printf.sprintf "unknown gate kind %S" kind)
  | Some k ->
    let lib = Ser_cell.Library.create () in
    let cells = Ser_cell.Library.variants lib k fanin in
    Ser_cell.Liberty_export.write output lib ~cells;
    Printf.printf "wrote %s (%d cells)\n" output (List.length cells);
    `Ok exit_ok

let characterize_cmd kind fanin size length vdd vth =
  wrap @@ fun () ->
  match Ser_netlist.Gate.of_string kind with
  | None | Some Ser_netlist.Gate.Input ->
    failwith (Printf.sprintf "unknown gate kind %S" kind)
  | Some k ->
    let p = Ser_device.Cell_params.v ~size ~length ~vdd ~vth k fanin in
    Printf.printf "cell %s\n" (Ser_device.Cell_params.to_string p);
    Printf.printf "  input cap   : %.3f fF\n" (Ser_device.Gate_model.input_cap p);
    Printf.printf "  output cap  : %.3f fF\n" (Ser_device.Gate_model.output_cap p);
    Printf.printf "  area        : %.2f (min-inverter units)\n"
      (Ser_device.Gate_model.area p);
    Printf.printf "  leakage     : %.4f uW\n"
      (1000. *. Ser_device.Gate_model.leakage_power p);
    let cload = 4. *. Ser_device.Gate_model.input_cap p in
    let d_a = Ser_device.Gate_model.delay p ~input_ramp:20. ~cload in
    let d_t, r_t = Ser_spice.Char.delay_and_ramp p ~cload ~input_ramp:20. in
    Printf.printf "  FO4 delay   : %.2f ps analytic, %.2f ps transient (ramp %.1f ps)\n"
      d_a d_t r_t;
    let w_a =
      Ser_device.Gate_model.generated_glitch_width p
        ~node_cap:(cload +. Ser_device.Gate_model.output_cap p)
        ~charge:16. ~output_low:true
    in
    let w_t =
      Ser_spice.Char.generated_glitch_width p ~cload ~charge:16. ~output_low:true
    in
    Printf.printf "  glitch @16fC: %.1f ps analytic, %.1f ps transient\n" w_a w_t;
    `Ok exit_ok

(* ------------------------------------------------------------------ *)
(* batch supervision: hidden worker mode + the batch front end         *)
(* ------------------------------------------------------------------ *)

module Journal = Ser_jobs.Journal
module Supervisor = Ser_jobs.Supervisor
module Shard = Ser_jobs.Shard
module Merge = Ser_jobs.Merge

(* The worker half of the supervisor protocol: read one spooled
   request (--req-file, written by batch run or the serve daemon), run
   it in this (child) process and emit exactly one JSON document on
   stdout — {"ok":true,"result":...} or {"ok":false,"diag":...} plus a
   classed exit code. The request's test-only fault field exercises the
   supervisor's failure taxonomy. *)
let worker_attempt () =
  match Sys.getenv_opt "SERTOOL_WORKER_ATTEMPT" with
  | Some s -> (match int_of_string_opt s with Some n -> n | None -> 1)
  | None -> 1

let apply_worker_fault fault =
  let crash signal = Unix.kill (Unix.getpid ()) signal in
  match fault with
  | None -> ()
  | Some Request.Hang ->
    while true do
      Unix.sleepf 3600.
    done
  | Some Request.Crash -> crash Sys.sigsegv
  | Some Request.Oom ->
    (* stand-in for the OOM killer: die by uncatchable SIGKILL *)
    crash Sys.sigkill
  | Some Request.Garbage ->
    print_string "%% this is not the worker protocol %%\n";
    exit 0
  | Some (Request.Exit n) -> exit n
  | Some (Request.Flaky n) ->
    (* transient: crash on attempts below N, succeed afterwards — the
       path that proves retry-with-backoff recovers a job *)
    if worker_attempt () < n then crash Sys.sigsegv
  | Some (Request.Sleep_ms ms) ->
    (* non-destructive delay, for deadline/overload scenarios *)
    Unix.sleepf (ms /. 1000.)

let worker_cmd req_file =
  let emit ok field =
    print_string
      (Ser_util.Json.to_string ~indent:false
         (Ser_util.Json.Obj [ ("ok", Ser_util.Json.Bool ok); field ]));
    print_newline ()
  in
  let fail d =
    emit false ("diag", Ser_util.Diag.to_json d);
    `Ok (exit_code_of_diag d)
  in
  match Request.of_file req_file with
  | Error d -> fail d
  | Ok req -> (
    apply_worker_fault req.Request.fault;
    match Handlers.run req with
    | Ok result ->
      emit true ("result", result);
      `Ok exit_ok
    | Error d -> fail d)

(* ------------------------------------------------------------------ *)
(* the persistent analysis service and its client                      *)
(* ------------------------------------------------------------------ *)

module Server = Ser_serve.Server
module Client = Ser_serve.Client

let parse_tcp spec =
  match String.rindex_opt spec ':' with
  | Some i -> (
    let host = String.sub spec 0 i in
    let port = String.sub spec (i + 1) (String.length spec - i - 1) in
    match int_of_string_opt port with
    | Some p when p > 0 && p < 65536 ->
      (Server.Tcp ((if host = "" then "127.0.0.1" else host), p))
    | _ -> failwith (Printf.sprintf "bad tcp address %S (want HOST:PORT)" spec))
  | None -> failwith (Printf.sprintf "bad tcp address %S (want HOST:PORT)" spec)

let serve_cmd jobs obs socket tcp max_queue max_frame deadline cache_dir
    cache_entries pool_entries worker_timeout worker_retries spool_dir
    no_isolate quiet =
  wrap @@ fun () ->
  apply_jobs jobs;
  apply_obs obs;
  let addrs =
    Server.Unix_sock socket
    :: (match tcp with Some spec -> [ parse_tcp spec ] | None -> [])
  in
  let cfg =
    {
      (Server.default ~socket) with
      Server.addrs;
      max_queue;
      max_frame;
      default_deadline_s = deadline;
      cache_dir;
      cache_entries;
      pool_entries;
      worker_timeout_s = worker_timeout;
      worker_retries;
      spool_dir;
      isolate_optimize = not no_isolate;
      verbose = not quiet;
    }
  in
  Printf.printf "sertool serve: pid %d listening on %s\n%!" (Unix.getpid ())
    (String.concat ", " (List.map Server.addr_to_string addrs));
  (match Server.run cfg with
  | Ok () ->
    print_endline "sertool serve: drained cleanly";
    `Ok exit_ok
  | Error d ->
    render_diag d;
    `Ok (exit_code_of_diag d))

let reject_exit = function
  | Ser_serve.Wire.Bad_request -> exit_input
  | Ser_serve.Wire.Deadline_exceeded -> exit_budget
  | Ser_serve.Wire.Overloaded | Ser_serve.Wire.Worker_failed
  | Ser_serve.Wire.Shutting_down | Ser_serve.Wire.Internal ->
    exit_numerical

let client_cmd socket tcp op spec inline override connect_timeout timeout
    retries retry_rejected repeat =
  wrap @@ fun () ->
  if repeat < 1 then failwith "--repeat must be >= 1";
  let addr =
    match tcp with Some s -> parse_tcp s | None -> Server.Unix_sock socket
  in
  let opts =
    {
      Client.connect_timeout_s = connect_timeout;
      request_timeout_s = timeout;
      retries;
    }
  in
  let request =
    match op with
    | "health" | "stats" -> Ser_util.Json.Obj [ ("op", Ser_util.Json.Str op) ]
    | _ ->
      let opv =
        match Request.op_of_string op with
        | Some o -> o
        | None ->
          failwith
            (Printf.sprintf
               "unknown op %S (want analyze, optimize, rate, odc, health)" op)
      in
      let spec =
        match spec with
        | Some s -> s
        | None -> failwith "this op needs a CIRCUIT argument"
      in
      let source =
        if inline then begin
          (* ship the netlist text inside the request: the daemon never
             touches this client's filesystem *)
          let text =
            if Sys.file_exists spec then
              In_channel.with_open_bin spec In_channel.input_all
            else Ser_netlist.Bench_format.to_string (load_circuit spec)
          in
          Request.Inline_bench text
        end
        else Request.Spec spec
      in
      Request.to_json (request opv source override)
  in
  (* one framed connection stays alive across the whole --repeat loop
     (the daemon serves many requests per connection); conn_call
     transparently re-dials and retries if it drops *)
  let conn = Client.conn ~opts addr in
  let rec iterate i last =
    if i >= repeat then last
    else
      match Client.conn_call ~retry_rejected conn request with
      | Error _ as e -> e
      | Ok r ->
        if repeat > 1 then
          Printf.eprintf "sertool client: [%d/%d] %s in %.3fs%s\n" (i + 1)
            repeat
            (match r.Ser_serve.Wire.r_status with
            | Ser_serve.Wire.Ok_payload _ -> "ok"
            | Ser_serve.Wire.Rejected (reject, _, _) ->
              Ser_serve.Wire.reject_to_string reject)
            r.Ser_serve.Wire.r_elapsed_s
            (if r.Ser_serve.Wire.r_cache_hit then " (cache hit)" else "");
        iterate (i + 1) (Ok r)
  in
  let result = iterate 0 (Error (Ser_util.Diag.make ~subsystem:"serve" "no attempt")) in
  Client.conn_close conn;
  match result with
  | Error d ->
    render_diag d;
    `Ok exit_numerical
  | Ok r -> (
    match r.Ser_serve.Wire.r_status with
    | Ser_serve.Wire.Ok_payload payload ->
      print_endline (Ser_util.Json.to_string ~indent:true payload);
      Printf.eprintf
        "sertool client: ok in %.3fs%s%s%s\n" r.Ser_serve.Wire.r_elapsed_s
        (if r.Ser_serve.Wire.r_cache_hit then " (cache hit)" else "")
        (if r.Ser_serve.Wire.r_warm then " (warm)" else "")
        (if r.Ser_serve.Wire.r_replayed then " (replayed)" else "");
      `Ok exit_ok
    | Ser_serve.Wire.Rejected (reject, msg, diag) ->
      print_endline
        (Ser_util.Json.to_string ~indent:true
           (Ser_util.Json.Obj
              [
                ( "error",
                  Ser_util.Json.Str (Ser_serve.Wire.reject_to_string reject)
                );
                ("diag", diag);
              ]));
      Printf.eprintf "sertool client: rejected (%s): %s\n"
        (Ser_serve.Wire.reject_to_string reject)
        msg;
      `Ok (reject_exit reject))

(* Manifest: one job per line, "SPEC [fault=F]"; '#' comments and
   blank lines ignored. SPEC is a .bench/.v path or a benchmark name,
   exactly as for single-run commands. *)
let parse_manifest path =
  let fail ?line fmt =
    Ser_util.Diag.fail ~subsystem:"jobs"
      ~context:
        (Ser_util.Diag.file path
        :: Option.to_list (Option.map Ser_util.Diag.line line))
      fmt
  in
  let text =
    try In_channel.with_open_text path In_channel.input_all
    with Sys_error msg -> fail "%s" msg
  in
  let entries =
    String.split_on_char '\n' text
    |> List.mapi (fun i raw -> (i + 1, raw))
    |> List.filter_map (fun (n, raw) ->
           let line =
             match String.index_opt raw '#' with
             | Some h -> String.sub raw 0 h
             | None -> raw
           in
           match
             String.split_on_char ' ' (String.trim line)
             |> List.filter (( <> ) "")
           with
           | [] -> None
           | [ spec ] -> Some (spec, None)
           | [ spec; opt ] when String.starts_with ~prefix:"fault=" opt -> (
             (* catch typos here, with a line number, instead of letting
                every attempt die in the worker as a retried-then-degraded
                mystery *)
             match
               Request.fault_of_string
                 (String.sub opt 6 (String.length opt - 6))
             with
             | Ok f -> Some (spec, Some f)
             | Error msg -> fail ~line:n "%s" msg)
           | _ -> fail ~line:n "malformed manifest line %S" raw)
  in
  if entries = [] then fail "manifest lists no jobs";
  (* job ids must be unique: suffix duplicated specs with #k *)
  let seen = Hashtbl.create 16 in
  List.map
    (fun (spec, fault) ->
      let k =
        match Hashtbl.find_opt seen spec with Some k -> k + 1 | None -> 0
      in
      Hashtbl.replace seen spec k;
      let id = if k = 0 then spec else Printf.sprintf "%s#%d" spec k in
      (id, spec, fault))
    entries

let print_batch_event ev =
  match ev with
  | Journal.Started { job; attempt } ->
    Printf.printf "[%s] started (attempt %d)\n%!" job attempt
  | Journal.Attempt_failed { job; attempt; cls; detail; backoff_s } ->
    Printf.printf "[%s] attempt %d failed (%s: %s)%s\n%!" job attempt cls detail
      (if backoff_s > 0. then Printf.sprintf "; retrying in %.2f s" backoff_s
       else "")
  | Journal.Interrupted { job; attempt } ->
    Printf.printf "[%s] interrupted during attempt %d (will re-run on \
                   --resume)\n%!"
      job attempt
  | Journal.Done { job; status; digest; _ } ->
    Printf.printf "[%s] done: %s (digest %s)\n%!" job status
      (String.sub digest 0 (min 12 (String.length digest)))
  | Journal.Batch_start _ | Journal.Batch_end _ | Journal.Enqueued _ -> ()

(* Per-job observability files under --obs-dir: the supervisor hands
   each worker its own SERTOOL_TRACE/SERTOOL_METRICS paths through the
   environment, and the results document references them. Job ids may
   embed '/' (path specs) — flatten for the filename. *)
let obs_job_file dir id ext =
  let flat = String.map (fun ch -> if ch = '/' then '_' else ch) id in
  Filename.concat dir (flat ^ ext)

let obs_job_env obs_dir id =
  match obs_dir with
  | None -> []
  | Some dir ->
    [
      ("SERTOOL_TRACE", obs_job_file dir id ".trace.json");
      ("SERTOOL_METRICS", obs_job_file dir id ".metrics.json");
    ]

let obs_results_field obs_dir entries =
  match obs_dir with
  | None -> []
  | Some dir ->
    [
      ( "obs",
        Ser_util.Json.Obj
          [
            ("dir", Ser_util.Json.Str dir);
            ( "jobs",
              Ser_util.Json.Obj
                (List.map
                   (fun (id, _, _) ->
                     ( id,
                       Ser_util.Json.Obj
                         [
                           ( "trace",
                             Ser_util.Json.Str (obs_job_file dir id ".trace.json") );
                           ( "metrics",
                             Ser_util.Json.Str (obs_job_file dir id ".metrics.json")
                           );
                         ] ))
                   entries) );
          ] );
    ]

(* each job's request, spooled for its worker's --req-file; the spool
   directory lives exactly as long as the run *)
let with_spool reqs f =
  let dir = Filename.temp_dir "sertool-batch" "" in
  let spool k req =
    let path = Filename.concat dir (Printf.sprintf "job-%d.req.json" k) in
    or_diag (Request.to_file path req);
    path
  in
  Fun.protect
    ~finally:(fun () ->
      try
        Array.iter
          (fun f -> Sys.remove (Filename.concat dir f))
          (Sys.readdir dir);
        Sys.rmdir dir
      with Sys_error _ -> ())
    (fun () -> f (List.mapi spool reqs))

let batch_cmd manifest job_request journal_path resume shard parallel
    job_timeout grace retries backoff results obs obs_dir =
  wrap @@ fun () ->
  apply_obs obs;
  (match obs_dir with
  | Some dir when not (Sys.file_exists dir) -> Unix.mkdir dir 0o755
  | Some _ | None -> ());
  let shard =
    match shard with
    | None -> None
    | Some s -> (
      match Shard.of_string s with
      | Ok t -> Some t
      | Error msg -> failwith msg)
  in
  let entries = parse_manifest manifest in
  (* the shard's job set is a pure function of (job id, shard count):
     every worker recomputes it from the same manifest, no coordinator *)
  let entries =
    match shard with
    | None -> entries
    | Some t -> Shard.select t ~id:(fun (id, _, _) -> id) entries
  in
  let reqs =
    List.map
      (fun (_, spec, fault) ->
        or_diag
          (Request.validate
             { (job_request (Request.Spec spec)) with Request.fault }))
      entries
  in
  let journal_path =
    match (journal_path, shard) with
    | Some p, _ -> p
    | None, None -> manifest ^ ".journal"
    | None, Some t ->
      Printf.sprintf "%s.shard-%d-of-%d.journal" manifest t.Shard.index
        t.Shard.count
  in
  let resume_state =
    if resume then
      if Sys.file_exists journal_path then Some (or_diag (Journal.replay journal_path))
      else None
    else begin
      if
        Sys.file_exists journal_path
        && (Unix.stat journal_path).Unix.st_size > 0
      then
        failwith
          (Printf.sprintf
             "journal %s already exists; pass --resume to continue that \
              batch or remove it to start over"
             journal_path);
      None
    end
  in
  with_spool reqs @@ fun spools ->
  let jobs =
    List.map2
      (fun (id, _, _) spool ->
        Supervisor.job ~env:(obs_job_env obs_dir id) ~id
          [| Sys.executable_name; "worker"; "--req-file"; spool |])
      entries spools
  in
  let cfg =
    {
      Supervisor.default_config with
      Supervisor.parallel;
      timeout_s = job_timeout;
      grace_s = grace;
      retries;
      backoff_base_s = backoff;
    }
  in
  let journal = or_diag (Journal.create ?resume:resume_state journal_path) in
  let summary =
    Fun.protect
      ~finally:(fun () -> Journal.close journal)
      (fun () ->
        Supervisor.with_signal_drain (fun stop ->
            or_diag
              (Supervisor.run ~stop ~on_event:print_batch_event
                 ?shard:
                   (Option.map
                      (fun t -> (t.Shard.index, t.Shard.count))
                      shard)
                 cfg ~journal ?resume:resume_state jobs)))
  in
  Printf.printf
    "batch summary: ok=%d failed=%d degraded=%d skipped=%d interrupted=%d%s\n"
    summary.Supervisor.ok summary.Supervisor.failed summary.Supervisor.degraded
    summary.Supervisor.skipped summary.Supervisor.interrupted
    (if summary.Supervisor.drained then " (drained: interrupted by operator)"
     else "");
  (match results with
  | None -> ()
  | Some path ->
    (* derived from the journal alone, so an interrupted-then-resumed
       batch renders bit-identically to an uninterrupted one *)
    let st = or_diag (Journal.replay journal_path) in
    let doc =
      match Journal.final_results_json st with
      | Ser_util.Json.Obj fields ->
        Ser_util.Json.Obj (fields @ obs_results_field obs_dir entries)
      | other -> other
    in
    write_json path doc);
  `Ok exit_ok

(* Fold N shard journals back into the single-host results document.
   Robustness contract: torn tails are tolerated, gaps become a retry
   manifest plus a degraded document, digest conflicts are a typed
   integrity error (exit 5) — never silent corruption. *)
let batch_merge_cmd journals manifest shards results retry_path trace_ins
    merged_trace obs =
  wrap @@ fun () ->
  apply_obs obs;
  if journals = [] then failwith "batch merge needs at least one JOURNAL";
  let sources = or_diag (Merge.load journals) in
  (* shard count: explicit flag, else what the journals themselves
     declare, else one journal = one shard *)
  let shards =
    match shards with
    | Some n when n >= 1 -> Some n
    | Some n -> failwith (Printf.sprintf "--shards must be >= 1 (got %d)" n)
    | None -> (
      match
        List.filter_map
          (fun s -> Option.map snd s.Merge.src_state.Journal.shard)
          sources
      with
      | n :: _ -> Some n
      | [] -> None)
  in
  let manifest_entries = Option.map parse_manifest manifest in
  let expect =
    match manifest_entries with
    | None -> None
    | Some entries ->
      Some
        {
          Merge.e_jobs = List.map (fun (id, _, _) -> id) entries;
          e_shards =
            (match shards with Some n -> n | None -> List.length journals);
        }
  in
  let report = Merge.merge ?expect sources in
  match Merge.integrity_error report with
  | Some d ->
    render_diag d;
    `Ok exit_integrity
  | None ->
    List.iter
      (fun (job, path) ->
        Printf.eprintf
          "merge: note: %s delivered job %S it does not own under the \
           shard assignment\n"
          path job)
      report.Merge.foreign;
    let doc = Merge.results_json report in
    (match results with
    | Some path -> write_json path doc
    | None -> print_endline (Ser_util.Json.to_string ~indent:true doc));
    (* a degraded merge emits the exact manifest lines to re-run *)
    (match (retry_path, manifest_entries) with
    | Some path, Some entries ->
      let missing = Merge.retry_manifest_ids report in
      if missing <> [] then begin
        let oc = open_out path in
        List.iter
          (fun (id, spec, fault) ->
            if List.mem id missing then
              output_string oc
                (match fault with
                | Some f ->
                  Printf.sprintf "%s fault=%s\n" spec
                    (Request.fault_to_string f)
                | None -> spec ^ "\n"))
          entries;
        close_out oc;
        Printf.printf "wrote retry manifest %s (%d jobs)\n" path
          (List.length missing)
      end
    | Some _, None ->
      failwith "--retry-manifest needs --manifest to resolve job specs"
    | None, _ -> ());
    (* merged multi-worker timeline: shard i's domains land in tid band
       i*1000 so N workers render side by side in Perfetto *)
    (match merged_trace with
    | None -> ()
    | Some path ->
      let docs = List.mapi (fun i p -> (i, read_json "trace" p)) trace_ins in
      if docs = [] then
        failwith "--merged-trace needs at least one --trace-in FILE";
      (match
         Ser_util.Json.to_file path (Obs.Trace.merge_documents docs)
       with
      | Ok () -> Printf.printf "wrote merged trace %s\n" path
      | Error msg -> failwith msg));
    Printf.printf
      "merge summary: shards=%d jobs=%d torn_tails=%d overlaps=%d \
       missing_jobs=%d missing_shards=%d%s\n"
      report.Merge.sources
      (List.length report.Merge.finals)
      report.Merge.torn_tails
      (List.length report.Merge.overlaps)
      (List.length report.Merge.missing_jobs)
      (List.length report.Merge.missing_shards)
      (if report.Merge.degraded then " (degraded: rerun the retry manifest \
                                       or the missing shards and re-merge)"
       else "");
    `Ok exit_ok

(* Fleet progress without merging: replay each shard journal read-only
   and tabulate done/failed/degraded/pending. Safe to run while the
   shards are still being written — replay tolerates a torn tail. *)
let batch_status_cmd journals =
  wrap @@ fun () ->
  if journals = [] then
    failwith "batch status needs at least one journal file";
  let module J = Ser_jobs.Journal in
  let states = List.map (fun p -> (p, or_diag (J.replay p))) journals in
  let count (st : J.state) status =
    List.length
      (List.filter (fun (_, f) -> f.J.status = status) st.J.finals)
  in
  let tbl =
    Ser_util.Ascii_table.create
      ~aligns:[ Ser_util.Ascii_table.Left; Ser_util.Ascii_table.Left ]
      [ "journal"; "shard"; "jobs"; "ok"; "failed"; "degraded"; "pending";
        "note" ]
  in
  let t_jobs = ref 0 and t_ok = ref 0 and t_failed = ref 0 in
  let t_degraded = ref 0 and t_pending = ref 0 in
  List.iter
    (fun (path, (st : J.state)) ->
      let jobs = List.length st.J.jobs in
      let ok = count st "ok" in
      let failed = count st "failed" in
      let degraded = count st "degraded" in
      let pending = jobs - List.length st.J.finals in
      t_jobs := !t_jobs + jobs;
      t_ok := !t_ok + ok;
      t_failed := !t_failed + failed;
      t_degraded := !t_degraded + degraded;
      t_pending := !t_pending + pending;
      Ser_util.Ascii_table.add_row tbl
        [
          Filename.basename path;
          (match st.J.shard with
          | Some (i, n) -> Printf.sprintf "%d/%d" i n
          | None -> "-");
          string_of_int jobs;
          string_of_int ok;
          string_of_int failed;
          string_of_int degraded;
          string_of_int pending;
          (if st.J.torn_tail then "torn tail" else "");
        ])
    states;
  Ser_util.Ascii_table.print tbl;
  Printf.printf "fleet: %d/%d jobs done (%d ok, %d failed, %d degraded), %d pending\n"
    (!t_ok + !t_failed + !t_degraded)
    !t_jobs !t_ok !t_failed !t_degraded !t_pending;
  `Ok exit_ok

(* Self/total-time table from a Chrome trace, so profiling a sweep
   does not require loading Perfetto. *)
let report_cmd trace_path top =
  wrap @@ fun () ->
  let rows = Obs.Trace.tabulate (read_json "trace" trace_path) in
  if rows = [] then print_endline "trace holds no spans"
  else begin
    let shown = if top <= 0 then rows else List.filteri (fun i _ -> i < top) rows in
    let name_w =
      List.fold_left
        (fun w (r : Obs.Trace.row) -> max w (String.length r.Obs.Trace.row_name))
        4 shown
    in
    let grand_self =
      List.fold_left
        (fun acc (r : Obs.Trace.row) -> acc +. r.Obs.Trace.row_self_us)
        0. rows
    in
    Printf.printf "%-*s %10s %12s %12s %7s\n" name_w "span" "count"
      "total_ms" "self_ms" "self%";
    List.iter
      (fun (r : Obs.Trace.row) ->
        Printf.printf "%-*s %10d %12.3f %12.3f %6.1f%%\n" name_w
          r.Obs.Trace.row_name r.Obs.Trace.row_count
          (r.Obs.Trace.row_total_us /. 1000.)
          (r.Obs.Trace.row_self_us /. 1000.)
          (if grand_self > 0. then 100. *. r.Obs.Trace.row_self_us /. grand_self
           else 0.))
      shown;
    if top > 0 && List.length rows > top then
      Printf.printf "... %d more spans (raise --top)\n"
        (List.length rows - top)
  end;
  `Ok exit_ok

(* ------------------------------------------------------------------ *)

open Cmdliner

let circuit_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"CIRCUIT"
         ~doc:"Benchmark name (c17, c432, ...) or .bench file path.")

let jobs_arg =
  Arg.(value & opt int (-1) & info [ "j"; "jobs" ] ~docv:"N"
         ~doc:"Worker domains for parallel sections: 0 autodetects from the \
               machine, 1 forces sequential execution, N>1 pins the pool \
               width. Defaults to the SERTOOL_JOBS environment variable, \
               else autodetection. Results are bit-identical for every \
               setting.")

let obs_args =
  let trace =
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE"
           ~doc:"Record a Chrome trace-event timeline of the run and write \
                 it to FILE at exit (open with Perfetto or chrome://tracing).")
  in
  let metrics =
    Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE"
           ~doc:"Write a JSON snapshot of all internal counters, gauges and \
                 histograms to FILE at exit.")
  in
  let sample =
    Arg.(value & opt (some int) None & info [ "trace-sample" ] ~docv:"N"
           ~doc:"Keep only every N-th trace span (1 = keep all, the \
                 default); dropped spans are counted in the \
                 trace.sampled_drops metric. Overrides the \
                 SERTOOL_TRACE_SAMPLE environment variable.")
  in
  Term.(const (fun t m s -> (t, m, s)) $ trace $ metrics $ sample)

(* pool width and observability, for {!one_shot} *)
let run_args = Term.(const (fun j o -> (j, o)) $ jobs_arg $ obs_args)

let obs_dir_arg =
  Arg.(value & opt (some string) None & info [ "obs-dir" ] ~docv:"DIR"
         ~doc:"Collect per-job trace and metrics files from batch workers \
               into DIR (sets SERTOOL_TRACE/SERTOOL_METRICS in each child); \
               the results JSON references them under an \"obs\" field.")

let info_t =
  Cmd.v (Cmd.info "info" ~doc:"Print circuit statistics")
    Term.(ret (const info_cmd $ circuit_arg))

let generate_t =
  let bench_name =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"NAME"
           ~doc:"Benchmark name.")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Generator seed.") in
  let format =
    Arg.(value & opt string "bench" & info [ "format" ] ~docv:"FMT"
           ~doc:"Output format: bench, verilog or dot.")
  in
  let output =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE"
           ~doc:"Write to a file instead of stdout.")
  in
  Cmd.v
    (Cmd.info "generate"
       ~doc:"Emit a benchmark circuit (.bench, Verilog or Graphviz)")
    Term.(ret (const generate_cmd $ bench_name $ seed $ format $ output))

let analyze_t =
  let json =
    Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE"
           ~doc:"Write the analyze document (the --top softest gates) as \
                 JSON: the payload serve and batch answer for this request.")
  in
  let dot =
    Arg.(value & opt (some string) None & info [ "dot" ] ~docv:"FILE"
           ~doc:"Export the circuit as Graphviz with unreliability heat.")
  in
  let odc =
    Arg.(value & opt (some string) None & info [ "odc" ] ~docv:"FILE"
           ~doc:"ODC report (written by 'sertool odc -o') whose \
                 provably-masked fault sites are skipped during the \
                 Monte-Carlo P_ij pass. Totals and per-gate values stay \
                 bit-identical; the skipped sites are counted in the \
                 aserta.odc_pruned metric. ASERTA backend only, and the \
                 report's digest must match this netlist.")
  in
  Cmd.v (Cmd.info "analyze" ~doc:"Soft-error tolerance analysis")
    Term.(ret (const analyze_cmd $ run_args $ circuit_arg
               $ Request.Flags.one_shot Request.Analyze $ odc $ json $ dot))

let odc_t =
  let output =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE"
           ~doc:"Write the deterministic JSON report — the file that \
                 'analyze --odc' and 'optimize --odc' consume.")
  in
  Cmd.v
    (Cmd.info "odc"
       ~doc:"Discover observability don't-cares by bit-parallel error \
             injection: classify every gate as provably masked \
             (exhaustive, no primary-output difference), observed, or \
             sampled-unobserved with a per-gate observability bound")
    Term.(ret (const odc_cmd $ run_args $ circuit_arg
               $ Request.Flags.one_shot Request.Odc $ output))

let optimize_t =
  let output =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE"
           ~doc:"Dump the optimized cell assignment.")
  in
  let json =
    Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE"
           ~doc:"Write the optimize document as JSON: the payload serve \
                 and batch answer for this request.")
  in
  let timeout =
    Arg.(value & opt (some float) None & info [ "timeout" ] ~docv:"SECONDS"
           ~doc:"Wall-clock deadline; the best-so-far incumbent is returned \
                 (flagged degraded) when it expires.")
  in
  let checkpoint =
    Arg.(value & opt (some string) None & info [ "checkpoint" ] ~docv:"FILE"
           ~doc:"Resume from FILE if it exists, and write the final \
                 assignment back to it (JSON incumbent).")
  in
  let odc =
    Arg.(value & opt (some string) None & info [ "odc" ] ~docv:"FILE"
           ~doc:"ODC report (written by 'sertool odc -o') seeding an \
                 extra downsizing stage: gates with observability at most \
                 0.05 are offered their smaller variants, measured with \
                 the exact engine (acceptance never trusts the report; a \
                 wrong bound can only waste evaluations). Proposed and \
                 accepted moves land in the sertopt.odc_moves / \
                 sertopt.odc_accepts metrics.")
  in
  Cmd.v (Cmd.info "optimize" ~doc:"SERTOPT soft-error tolerance optimization")
    Term.(ret (const optimize_cmd $ run_args $ circuit_arg
               $ Request.Flags.one_shot Request.Optimize $ timeout $ checkpoint
               $ odc $ output $ json))

let export_deck_t =
  let strike =
    Arg.(required & opt (some string) None & info [ "strike" ] ~docv:"GATE"
           ~doc:"Name of the struck gate.")
  in
  let vector =
    Arg.(value & opt (some string) None & info [ "vector" ] ~docv:"BITS"
           ~doc:"Input vector as a 0/1 string (random if omitted).")
  in
  let charge =
    Arg.(value & opt float 16. & info [ "charge" ] ~doc:"Injected charge, fC.")
  in
  let output =
    Arg.(value & opt string "strike.sp" & info [ "o"; "output" ] ~docv:"FILE"
           ~doc:"Output SPICE deck.")
  in
  Cmd.v
    (Cmd.info "export-deck"
       ~doc:"Emit a standalone SPICE deck for one strike scenario \
             (cross-validation in ngspice/HSPICE)")
    Term.(ret (const export_deck_cmd $ circuit_arg $ strike $ vector $ charge
               $ output))

let characterize_t =
  let kind =
    Arg.(value & opt string "NAND" & info [ "kind" ] ~doc:"Gate kind.")
  in
  let fanin = Arg.(value & opt int 2 & info [ "fanin" ] ~doc:"Fan-in.") in
  let size = Arg.(value & opt float 1.0 & info [ "size" ] ~doc:"Size multiplier.") in
  let length = Arg.(value & opt float 70. & info [ "length" ] ~doc:"Channel length, nm.") in
  let vdd = Arg.(value & opt float 1.0 & info [ "vdd" ] ~doc:"Supply, V.") in
  let vth = Arg.(value & opt float 0.2 & info [ "vth" ] ~doc:"Threshold, V.") in
  Cmd.v (Cmd.info "characterize" ~doc:"Electrically characterise one cell")
    Term.(ret (const characterize_cmd $ kind $ fanin $ size $ length $ vdd $ vth))

let rate_t =
  Cmd.v
    (Cmd.info "rate"
       ~doc:"Soft-error rate (FIT) over a particle charge spectrum")
    Term.(ret (const rate_cmd $ run_args $ circuit_arg
               $ Request.Flags.one_shot Request.Rate))

let harden_t =
  let method_ =
    Arg.(value & opt string "tmr" & info [ "method" ] ~docv:"M"
           ~doc:"Hardening transform: tmr, ptmr (partial, softest gates) or ced.")
  in
  let fraction =
    Arg.(value & opt float 0.2 & info [ "fraction" ]
           ~doc:"Gate fraction protected by ptmr.")
  in
  let output =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE"
           ~doc:"Write the hardened netlist (.bench) to a file.")
  in
  Cmd.v
    (Cmd.info "harden"
       ~doc:"Apply a classical structural hardening transform (TMR, partial \
             TMR, duplication+CED)")
    Term.(ret (const harden_cmd $ jobs_arg $ circuit_arg $ method_ $ fraction
               $ output))

let pipeline_t =
  let stages =
    Arg.(value & opt int 2 & info [ "stages" ] ~doc:"Pipeline depth.")
  in
  let clock =
    Arg.(value & opt (some float) None & info [ "clock" ] ~docv:"PS"
           ~doc:"Clock period in ps (default: minimum feasible).")
  in
  Cmd.v
    (Cmd.info "pipeline"
       ~doc:"Slice a circuit into pipeline stages and report the system SER")
    Term.(ret (const pipeline_cmd $ jobs_arg $ circuit_arg $ stages $ clock))

let timing_t =
  let n_paths =
    Arg.(value & opt int 3 & info [ "paths" ] ~doc:"Worst paths to report.")
  in
  Cmd.v
    (Cmd.info "timing" ~doc:"Static timing report with the K worst paths")
    Term.(ret (const timing_cmd $ jobs_arg $ circuit_arg $ n_paths
               $ Request.Flags.axes))

let export_lib_t =
  let kind =
    Arg.(value & opt string "NAND" & info [ "kind" ] ~doc:"Gate kind.")
  in
  let fanin = Arg.(value & opt int 2 & info [ "fanin" ] ~doc:"Fan-in.") in
  let output =
    Arg.(value & opt string "ser70.lib" & info [ "o"; "output" ] ~docv:"FILE"
           ~doc:"Output Liberty file.")
  in
  Cmd.v
    (Cmd.info "export-lib"
       ~doc:"Dump the characterised cell variants of one logic function \
             as a Liberty (.lib) file")
    Term.(ret (const export_lib_cmd $ kind $ fanin $ output))

let worker_t =
  let req_file =
    Arg.(required & opt (some string) None & info [ "req-file" ] ~docv:"FILE"
           ~doc:"The request record (canonical JSON) to run, spooled by \
                 batch run or the serve daemon.")
  in
  Cmd.v
    (Cmd.info "worker"
       ~doc:"(internal) Run one job as a supervised child process and \
             emit the result as JSON on stdout")
    Term.(ret (const worker_cmd $ req_file))

let default_socket = "/tmp/sertool.sock"

let socket_arg =
  Arg.(value & opt string default_socket & info [ "socket" ] ~docv:"PATH"
         ~doc:"Unix-domain socket path.")

let tcp_arg =
  Arg.(value & opt (some string) None & info [ "tcp" ] ~docv:"HOST:PORT"
         ~doc:"Also (serve) / instead (client) use a TCP endpoint.")

let serve_t =
  let max_queue =
    Arg.(value & opt int 16 & info [ "max-queue" ] ~docv:"N"
           ~doc:"Admission-queue bound: one request beyond it is answered \
                 with a typed 'overloaded' rejection immediately \
                 (deterministic load shedding).")
  in
  let max_frame =
    Arg.(value & opt int Ser_serve.Frame.default_max_frame
         & info [ "max-frame" ] ~docv:"BYTES"
           ~doc:"Largest accepted request frame.")
  in
  let deadline =
    Arg.(value & opt (some float) None & info [ "deadline" ] ~docv:"SECONDS"
           ~doc:"Default per-request deadline for requests that carry none.")
  in
  let cache_dir =
    Arg.(value & opt (some string) None & info [ "cache-dir" ] ~docv:"DIR"
           ~doc:"Persist the result cache to DIR/cache.json (atomic \
                 tmp+rename after every insert); a restarted daemon reloads \
                 it warm.")
  in
  let cache_entries =
    Arg.(value & opt int 256 & info [ "cache-entries" ] ~docv:"N"
           ~doc:"Result-cache LRU bound.")
  in
  let pool_entries =
    Arg.(value & opt int 4 & info [ "pool-entries" ] ~docv:"N"
           ~doc:"LRU bound of the pool of prepared circuits (each with \
                 its sized baseline and ASERTA analysis).")
  in
  let worker_timeout =
    Arg.(value & opt float 120. & info [ "worker-timeout" ] ~docv:"SECONDS"
           ~doc:"Watchdog per isolated-worker attempt.")
  in
  let worker_retries =
    Arg.(value & opt int 1 & info [ "worker-retries" ] ~docv:"N"
           ~doc:"Transient-failure retries per isolated request.")
  in
  let spool_dir =
    Arg.(value & opt (some string) None & info [ "spool-dir" ] ~docv:"DIR"
           ~doc:"Directory for request spool files and per-request journals \
                 (default: the system temp directory).")
  in
  let no_isolate =
    Arg.(value & flag & info [ "no-isolate-optimize" ]
           ~doc:"Run optimize requests inline instead of in an isolated \
                 worker process (faster, but a crashing evaluation then \
                 takes the daemon with it).")
  in
  let quiet =
    Arg.(value & flag & info [ "quiet" ]
           ~doc:"Suppress per-event lifecycle lines on stderr.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run a persistent analysis daemon: length-framed JSON requests \
             over a Unix (or TCP) socket, content-addressed result cache, \
             pooled prepared circuits, admission control with load \
             shedding, per-request deadlines, crash-contained isolated \
             workers and graceful drain on SIGTERM")
    Term.(ret (const serve_cmd $ jobs_arg $ obs_args $ socket_arg $ tcp_arg
               $ max_queue $ max_frame $ deadline $ cache_dir $ cache_entries
               $ pool_entries $ worker_timeout $ worker_retries $ spool_dir
               $ no_isolate $ quiet))

let client_t =
  let op =
    Arg.(value & pos 0 string "health" & info [] ~docv:"OP"
           ~doc:"Operation: analyze, optimize, rate, odc, health or stats.")
  in
  let spec =
    Arg.(value & pos 1 (some string) None & info [] ~docv:"CIRCUIT"
           ~doc:"Benchmark name or .bench/.v file path (not needed for \
                 health).")
  in
  let inline =
    Arg.(value & flag & info [ "inline" ]
           ~doc:"Ship the netlist text inside the request instead of a \
                 path/name the daemon resolves on its own filesystem.")
  in
  let connect_timeout =
    Arg.(value & opt float 5. & info [ "connect-timeout" ] ~docv:"SECONDS"
           ~doc:"Connection-establishment timeout per attempt.")
  in
  let timeout =
    Arg.(value & opt float 300. & info [ "timeout" ] ~docv:"SECONDS"
           ~doc:"Response timeout.")
  in
  let retries =
    Arg.(value & opt int 5 & info [ "retries" ] ~docv:"N"
           ~doc:"Transport-failure retries with exponential backoff.")
  in
  let retry_rejected =
    Arg.(value & flag & info [ "retry-rejected" ]
           ~doc:"Also retry retryable protocol rejections (overloaded, \
                 shutting_down, worker_failed); pair with --id so \
                 re-execution stays idempotent.")
  in
  let repeat =
    Arg.(value & opt int 1 & info [ "repeat" ] ~docv:"N"
           ~doc:"Send the request N times over one kept-alive framed \
                 connection (with transparent reconnect-and-retry if the \
                 daemon drops it); per-iteration status goes to stderr, \
                 the last payload to stdout.")
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:"Send one request (or N repeats over one kept-alive \
             connection) to a running sertool serve daemon and print the \
             response payload")
    Term.(ret (const client_cmd $ socket_arg $ tcp_arg $ op $ spec $ inline
               $ Request.Flags.client $ connect_timeout $ timeout $ retries
               $ retry_rejected $ repeat))

let batch_t =
  let manifest =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"MANIFEST"
           ~doc:"Manifest file: one job per line, \"SPEC [fault=F]\".")
  in
  let journal =
    Arg.(value & opt (some string) None & info [ "journal" ] ~docv:"FILE"
           ~doc:"Write-ahead journal path (default MANIFEST.journal).")
  in
  let resume =
    Arg.(value & flag & info [ "resume" ]
           ~doc:"Resume a previous run of the same manifest: jobs already \
                 journalled as done are skipped bit-identically.")
  in
  let parallel =
    Arg.(value & opt int 1 & info [ "parallel" ] ~docv:"N"
           ~doc:"Concurrent worker processes.")
  in
  let job_timeout =
    Arg.(value & opt float 300. & info [ "timeout-per-job" ] ~docv:"SECONDS"
           ~doc:"Per-attempt watchdog (monotonic clock): SIGTERM on expiry, \
                 SIGKILL after the grace period.")
  in
  let grace =
    Arg.(value & opt float 2. & info [ "grace" ] ~docv:"SECONDS"
           ~doc:"SIGTERM-to-SIGKILL grace period.")
  in
  let retries =
    Arg.(value & opt int 2 & info [ "retries" ] ~docv:"N"
           ~doc:"Retries per job for transient failures (crash, hang, \
                 garbage output, unexplained exit) with exponential backoff; \
                 after the budget the job is recorded as degraded and the \
                 batch continues.")
  in
  let backoff =
    Arg.(value & opt float 1. & info [ "backoff" ] ~docv:"SECONDS"
           ~doc:"Base retry delay; grows exponentially with deterministic \
                 jitter.")
  in
  let results =
    Arg.(value & opt (some string) None & info [ "results" ] ~docv:"FILE"
           ~doc:"Write the final per-job results (derived from the journal) \
                 as JSON.")
  in
  let shard =
    Arg.(value & opt (some string) None & info [ "shard" ] ~docv:"I/N"
           ~doc:"Run only shard I of an N-way split of the manifest \
                 (FNV-keyed on the job id, so any worker recomputes any \
                 shard's job set without coordination). The default journal \
                 becomes MANIFEST.shard-I-of-N.journal; fold the shard \
                 journals back together with 'sertool batch merge'.")
  in
  let run_t =
    Cmd.v
      (Cmd.info "run"
         ~doc:"Run a manifest (or one shard of it) with crash-contained \
               worker processes and a resumable write-ahead journal")
      Term.(ret (const batch_cmd $ manifest $ Request.Flags.batch $ journal
                 $ resume $ shard $ parallel $ job_timeout $ grace $ retries
                 $ backoff $ results $ obs_args $ obs_dir_arg))
  in
  let merge_t =
    let journals =
      Arg.(value & pos_all string [] & info [] ~docv:"JOURNAL"
             ~doc:"Shard journal files to merge.")
    in
    let manifest =
      Arg.(value & opt (some string) None & info [ "manifest" ] ~docv:"FILE"
             ~doc:"The manifest the shards were split from; enables gap \
                   detection (missing jobs, missing shards) and the retry \
                   manifest.")
    in
    let shards =
      Arg.(value & opt (some int) None & info [ "shards" ] ~docv:"N"
             ~doc:"Expected shard count (default: what the journals \
                   themselves declare).")
    in
    let results =
      Arg.(value & opt (some string) None & info [ "results" ] ~docv:"FILE"
             ~doc:"Write the merged results document (default: stdout). \
                   A complete merge is byte-identical to a single-host \
                   run's document; a partial merge carries an explicit \
                   degraded \"merge\" field.")
    in
    let retry =
      Arg.(value & opt (some string) None & info [ "retry-manifest" ]
             ~docv:"FILE"
             ~doc:"On gaps, write the manifest lines of the missing jobs \
                   here; re-run them and merge again (idempotent).")
    in
    let trace_ins =
      Arg.(value & opt_all string [] & info [ "trace-in" ] ~docv:"FILE"
             ~doc:"Per-shard Chrome trace file (repeatable, in shard \
                   order) to fold into --merged-trace.")
    in
    let merged_trace =
      Arg.(value & opt (some string) None & info [ "merged-trace" ]
             ~docv:"FILE"
             ~doc:"Write one merged multi-worker timeline: each shard's \
                   threads land in their own tid band with shard-prefixed \
                   names.")
    in
    Cmd.v
      (Cmd.info "merge"
         ~doc:"Fold N shard journals into the bit-identical results \
               document a single-host run produces; torn tails are \
               tolerated, gaps become a retry manifest and a degraded \
               document, digest conflicts are a typed integrity error \
               (exit 5)")
      Term.(ret (const batch_merge_cmd $ journals $ manifest $ shards
                 $ results $ retry $ trace_ins $ merged_trace $ obs_args))
  in
  let status_t =
    let journals =
      Arg.(value & pos_all string [] & info [] ~docv:"JOURNAL"
             ~doc:"Shard journal files to inspect.")
    in
    Cmd.v
      (Cmd.info "status"
         ~doc:"Tabulate fleet progress from shard journals without \
               merging: done/failed/degraded/pending per shard plus a \
               fleet total; read-only and safe while the shards are \
               still running (torn tails are tolerated and flagged)")
      Term.(ret (const batch_status_cmd $ journals))
  in
  Cmd.group
    (Cmd.info "batch"
       ~doc:"Run ASERTA/SERTOPT over a manifest of circuits with \
             crash-contained worker processes, a watchdog, retry/backoff, \
             a resumable write-ahead journal, deterministic sharding \
             across hosts and a bit-identical journal merge")
    [ run_t; merge_t; status_t ]

let report_t =
  let trace =
    Arg.(required & opt (some string) None & info [ "trace" ] ~docv:"FILE"
           ~doc:"Chrome trace file written by --trace (or batch merge \
                 --merged-trace).")
  in
  let top =
    Arg.(value & opt int 30 & info [ "top" ] ~docv:"N"
           ~doc:"Rows to print (0 = all), sorted by self time.")
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:"Fold a Chrome trace into a per-span self/total-time table on \
             stdout, so profiling a sweep does not require Perfetto")
    Term.(ret (const report_cmd $ trace $ top))

let xval_t =
  let circuit =
    Arg.(value & pos 0 string "c432" & info [] ~docv:"CIRCUIT"
           ~doc:"Benchmark name (the generator set: c17, c432, ...).")
  in
  let corpus =
    Arg.(value & opt (some string) None & info [ "corpus" ] ~docv:"DIR"
           ~doc:"Run the study over every .bench file in DIR (name order) \
                 and print one aggregate agreement table instead of a \
                 single-circuit report; the positional CIRCUIT is \
                 ignored.")
  in
  let vectors =
    Arg.(value & opt int 2000 & info [ "vectors" ]
           ~doc:"Random vectors for ASERTA's P_ij (serpp is vectorless).")
  in
  let charge =
    Arg.(value & opt float 16. & info [ "charge" ] ~doc:"Injected charge, fC.")
  in
  let top =
    Arg.(value & opt int 10 & info [ "top" ]
           ~doc:"Rank-overlap window: softest gates compared across backends.")
  in
  let json =
    Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE"
           ~doc:"Export the cross-validation report as JSON.")
  in
  Cmd.v
    (Cmd.info "xval"
       ~doc:"Cross-validate the serpp backend against ASERTA: per-gate \
             Pearson/Spearman correlation and top-N rank overlap on one \
             benchmark")
    Term.(ret (const xval_cmd $ run_args $ circuit $ corpus
               $ vectors $ charge $ top $ json))

let main =
  Cmd.group
    (Cmd.info "sertool" ~version:"1.0.0"
       ~doc:"Soft-error tolerance analysis (ASERTA) and optimization (SERTOPT) \
             of combinational nanometer circuits")
    [ info_t; generate_t; analyze_t; optimize_t; rate_t; odc_t; xval_t;
      timing_t; pipeline_t; harden_t; characterize_t; export_deck_t;
      export_lib_t; batch_t; serve_t; client_t; worker_t; report_t ]

(* Batch workers inherit SERTOOL_TRACE/SERTOOL_METRICS from the supervisor
   so their observability lands in per-job files without extra flags. *)
let () = Obs.install_from_env ()

let () = exit (Cmd.eval' main)
