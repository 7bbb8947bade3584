module Diag = Ser_util.Diag
module Bench = Ser_netlist.Bench_format
module Verilog = Ser_netlist.Verilog_format
module Engine = Ser_spice.Engine
module W = Ser_spice.Waveform
module P = Ser_device.Cell_params
module Gate = Ser_netlist.Gate

type outcome =
  | Passed
  | Graceful of Diag.t
  | Degraded
  | Uncaught of exn

type expect = Must_reject | Must_flag | Must_survive

type scenario = {
  name : string;
  group : string;
  expect : expect;
  run : unit -> outcome;
}

let outcome_to_string = function
  | Passed -> "passed"
  | Graceful d -> "graceful: " ^ Diag.to_string d
  | Degraded -> "degraded"
  | Uncaught e -> "UNCAUGHT: " ^ Printexc.to_string e

let satisfies expect outcome =
  match (expect, outcome) with
  | _, Uncaught _ -> false
  | Must_reject, Graceful _ -> true
  | Must_reject, _ -> false
  | Must_flag, (Graceful _ | Degraded) -> true
  | Must_flag, _ -> false
  | Must_survive, _ -> true

let run_scenario s = try s.run () with e -> Uncaught e

(* -------------------- shared fixtures -------------------- *)

(* A fixture is built on first use and shared by every scenario. Not a
   [lazy]: the scenarios run concurrently on the pool, and forcing one
   lazy value from two domains at once raises [Lazy.Undefined] in the
   loser. *)
let shared build =
  let m = Mutex.create () and v = ref None in
  fun () ->
    Mutex.protect m (fun () ->
        match !v with
        | Some x -> x
        | None ->
          let x = build () in
          v := Some x;
          x)

let c17 = shared (fun () -> Ser_circuits.Iscas.load "c17")

(* The analysis/optimizer scenarios fail config validation before any
   electrical work, so the default library is never characterised for
   them; only the budget scenario pays for real measurements. *)
let lib = shared (fun () -> Ser_cell.Library.create ())
let base_asg = shared (fun () -> Ser_sta.Assignment.uniform (lib ()) (c17 ()))

let of_result = function Ok _ -> Passed | Error d -> Graceful d

let temp_with_contents text =
  let path = Filename.temp_file "faultsim" ".json" in
  let oc = open_out path in
  output_string oc text;
  close_out oc;
  path

(* -------------------- parser corruption -------------------- *)

let bench name text =
  {
    name;
    group = "parser";
    expect = Must_reject;
    run = (fun () -> of_result (Bench.parse_string text));
  }

let truncated_c17 () =
  let text = Bench.to_string (c17 ()) in
  (* cut mid-statement: declared outputs now reference gates that were
     defined after the cut *)
  String.sub text 0 (String.length text / 2)

let parser_scenarios () =
  [
    bench "truncated statement" "INPUT(a)\ny = NOT(a";
    bench "unknown gate kind" "INPUT(a)\nOUTPUT(y)\ny = FROB(a)";
    bench "undefined fan-in" "INPUT(a)\nOUTPUT(y)\ny = AND(a, ghost)";
    bench "duplicate definition"
      "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\ny = BUF(a)";
    bench "combinational cycle"
      "INPUT(a)\nOUTPUT(y)\nx = NAND(a, y)\ny = NOT(x)";
    bench "self loop" "INPUT(a)\nOUTPUT(y)\ny = NAND(a, y)";
    bench "undefined output" "INPUT(a)\nOUTPUT(zzz)\ny = NOT(a)";
    bench "zero-operand gate" "INPUT(a)\nOUTPUT(y)\ny = AND()";
    bench "binary garbage" "\x00\xff\xfe INPUT(\x01)\n\x7f = AND(\xfe)";
    bench "unclosed input decl" "INPUT(a\nOUTPUT(y)\ny = NOT(a)";
    bench "stray equals" "INPUT(a)\nOUTPUT(y)\n= NOT(a)";
    {
      name = "truncated benchmark file";
      group = "parser";
      expect = Must_reject;
      run = (fun () -> of_result (Bench.parse_string (truncated_c17 ())));
    };
    {
      name = "verilog garbage";
      group = "verilog";
      expect = Must_reject;
      run = (fun () -> of_result (Verilog.parse_string "module ); endmodule"));
    };
    {
      name = "verilog truncated module";
      group = "verilog";
      expect = Must_reject;
      run =
        (fun () ->
          of_result
            (Verilog.parse_string
               "module m(a, y); input a; output y; not(y,"));
    };
  ]

(* -------------------- engine corruption -------------------- *)

let one_inverter () =
  let b = Engine.Build.create () in
  let e = Engine.Build.ext b in
  let n =
    Engine.Build.add_stage b Engine.Inv (P.nominal Gate.Not 1)
      [| Engine.Ext e |]
  in
  Engine.Build.add_cap b n 1.;
  (Engine.Build.finish b, n)

let sim_health ?injections ?dt ?(init = [| 0. |]) ?(t_end = 50.) () =
  let net, _ = one_inverter () in
  let _, h =
    Engine.simulate_h net
      ~inputs:[| W.dc 1.0 |]
      ~init ?injections ?dt ~t_end ()
  in
  if h.Engine.flagged then Degraded else Passed

let guarded f = of_result (Diag.guard ~subsystem:"spice" f)

let engine_scenarios () =
  [
    {
      name = "NaN initial state";
      group = "engine";
      expect = Must_flag;
      run = (fun () -> sim_health ~init:[| Float.nan |] ());
    };
    {
      name = "Inf initial state";
      group = "engine";
      expect = Must_flag;
      run = (fun () -> sim_health ~init:[| Float.infinity |] ());
    };
    {
      name = "NaN injection charge";
      group = "engine";
      expect = Must_flag;
      run =
        (fun () ->
          sim_health
            ~injections:
              [
                {
                  Engine.inj_node = 0;
                  charge = Float.nan;
                  t_start = 5.;
                  into_node = true;
                };
              ]
            ());
    };
    {
      name = "extreme injection charge";
      group = "engine";
      expect = Must_survive;
      run =
        (fun () ->
          sim_health
            ~injections:
              [
                {
                  Engine.inj_node = 0;
                  charge = 1e7;
                  t_start = 5.;
                  into_node = true;
                };
              ]
            ());
    };
    {
      name = "zero time step";
      group = "engine";
      expect = Must_reject;
      run = (fun () -> guarded (fun () -> ignore (sim_health ~dt:0. ())));
    };
    {
      name = "negative time step";
      group = "engine";
      expect = Must_reject;
      run = (fun () -> guarded (fun () -> ignore (sim_health ~dt:(-1.) ())));
    };
    {
      name = "NaN time step";
      group = "engine";
      expect = Must_reject;
      run = (fun () -> guarded (fun () -> ignore (sim_health ~dt:Float.nan ())));
    };
    {
      name = "NaN end time";
      group = "engine";
      expect = Must_reject;
      run =
        (fun () -> guarded (fun () -> ignore (sim_health ~t_end:Float.nan ())));
    };
    {
      name = "wrong init length";
      group = "engine";
      expect = Must_reject;
      run = (fun () -> guarded (fun () -> ignore (sim_health ~init:[||] ())));
    };
  ]

(* -------------------- analysis corruption -------------------- *)

let checked_config name mutate =
  {
    name;
    group = "analysis";
    expect = Must_reject;
    run =
      (fun () ->
        let config = mutate Aserta.Analysis.default_config in
        of_result
          (Aserta.Analysis.run_checked ~config (lib ()) (base_asg ())));
  }

let analysis_scenarios () =
  [
    checked_config "zero-vector Monte Carlo" (fun c ->
        { c with Aserta.Analysis.vectors = 0 });
    checked_config "NaN injected charge" (fun c ->
        { c with Aserta.Analysis.charge = Float.nan });
    checked_config "negative injected charge" (fun c ->
        { c with Aserta.Analysis.charge = -16. });
    checked_config "single sample width" (fun c ->
        { c with Aserta.Analysis.n_samples = 1 });
    checked_config "bad top sample width" (fun c ->
        { c with Aserta.Analysis.max_sample_width = Float.neg_infinity });
  ]

(* -------------------- odc report corruption -------------------- *)

module Odc = Ser_odc.Odc

let odc_c17_report =
  shared (fun () ->
      Odc.analyze ~config:{ Odc.default with Odc.vectors = 200 } (c17 ()))

let odc_scenarios () =
  [
    {
      name = "zero-vector screen budget";
      group = "odc";
      expect = Must_reject;
      run =
        (fun () ->
          of_result
            (Odc.analyze_checked
               ~config:{ Odc.default with Odc.vectors = 0 }
               (c17 ())));
    };
    {
      name = "pi_cap beyond the proof limit";
      group = "odc";
      expect = Must_reject;
      run =
        (fun () ->
          of_result
            (Odc.analyze_checked
               ~config:{ Odc.default with Odc.pi_cap = 21 }
               (c17 ())));
    };
    {
      name = "report minted for a different netlist";
      group = "odc";
      expect = Must_reject;
      run =
        (fun () ->
          of_result
            (Odc.prune_set
               (Ser_circuits.Iscas.load "c432")
               (odc_c17_report ())));
    };
    {
      name = "report referencing a nonexistent gate";
      group = "odc";
      expect = Must_reject;
      run =
        (fun () ->
          let r = odc_c17_report () in
          let r =
            {
              r with
              Odc.sites =
                Array.map
                  (fun s -> { s with Odc.gate = s.Odc.gate ^ "_ghost" })
                  r.Odc.sites;
            }
          in
          of_result (Odc.obs_array (c17 ()) r));
    };
    {
      name = "non-object report document";
      group = "odc";
      expect = Must_reject;
      run = (fun () -> of_result (Odc.of_json (Ser_util.Json.Str "nope")));
    };
    {
      name = "report missing its sites";
      group = "odc";
      expect = Must_reject;
      run =
        (fun () ->
          of_result
            (Odc.of_json
               (Ser_util.Json.Obj
                  [ ("format", Ser_util.Json.Str "odc-report-v1") ])));
    };
  ]

(* -------------------- optimizer / checkpoint corruption ------------ *)

let restore text =
  let path = temp_with_contents text in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      of_result (Sertopt.Checkpoint.restore path ~base:(base_asg ())))

let optimizer_scenarios () =
  [
    {
      name = "missing checkpoint file";
      group = "optimizer";
      expect = Must_reject;
      run =
        (fun () ->
          of_result
            (Sertopt.Checkpoint.restore "/nonexistent/faultsim-cp.json"
               ~base:(base_asg ())));
    };
    {
      name = "garbage checkpoint";
      group = "optimizer";
      expect = Must_reject;
      run = (fun () -> restore "][ not json ][");
    };
    {
      name = "checkpoint for another circuit";
      group = "optimizer";
      expect = Must_reject;
      run = (fun () -> restore {|{"circuit":"bogus","gates":[]}|});
    };
    {
      name = "checkpoint with unknown gate";
      group = "optimizer";
      expect = Must_reject;
      run =
        (fun () ->
          restore
            {|{"circuit":"c17","gates":[{"name":"ghost","kind":"NAND","fanin":2,"size":1,"length":70,"vdd":1,"vth":0.2}]}|});
    };
    {
      name = "checkpoint with degenerate cell";
      group = "optimizer";
      expect = Must_reject;
      run =
        (fun () ->
          let nd =
            (Ser_netlist.Circuit.node (c17 ())
               (c17 ()).Ser_netlist.Circuit.outputs.(0))
              .Ser_netlist.Circuit.name
          in
          restore
            (Printf.sprintf
               {|{"circuit":"c17","gates":[{"name":%S,"kind":"NAND","fanin":2,"size":-4,"length":70,"vdd":1,"vth":0.2}]}|}
               nd));
    };
    {
      name = "one-evaluation optimization budget";
      group = "optimizer";
      expect = Must_flag;
      run =
        (fun () ->
          let lib = lib () in
          let baseline = base_asg () in
          let config =
            {
              Sertopt.Optimizer.default_config with
              Sertopt.Optimizer.aserta =
                {
                  Aserta.Analysis.default_config with
                  Aserta.Analysis.vectors = 200;
                };
              max_evals = 4;
              greedy_passes = 1;
            }
          in
          let budget = Ser_util.Budget.create ~max_evals:1 () in
          let r = Sertopt.Optimizer.optimize ~config ~budget lib baseline in
          if r.Sertopt.Optimizer.degraded then Degraded else Passed);
    };
  ]

(* -------------------- util corruption -------------------- *)

let util_scenarios () =
  [
    {
      name = "garbage JSON text";
      group = "util";
      expect = Must_reject;
      run =
        (fun () ->
          match Ser_util.Json.of_string "{\"a\": }" with
          | Ok _ -> Passed
          | Error msg -> Graceful (Diag.error ~subsystem:"json" "%s" msg));
    };
    {
      name = "mean of empty sample";
      group = "util";
      expect = Must_reject;
      run =
        (fun () ->
          of_result
            (Diag.guard ~subsystem:"util" (fun () ->
                 ignore (Ser_util.Floatx.mean [||]))));
    };
    {
      name = "stddev of empty sample";
      group = "util";
      expect = Must_reject;
      run =
        (fun () ->
          of_result
            (Diag.guard ~subsystem:"util" (fun () ->
                 ignore (Ser_util.Floatx.stddev [||]))));
    };
  ]

(* -------------------- observability export failures ---------------- *)

module Obs = Ser_obs.Obs

(* writers that fail the way a full or read-only filesystem does *)
let enospc_writer _path _contents =
  raise (Sys_error "trace.json: No space left on device")

let eperm_writer _path _contents =
  raise (Sys_error "metrics.json: Permission denied")

let obs_scenarios () =
  [
    {
      name = "trace export hits ENOSPC";
      group = "obs";
      expect = Must_reject;
      run =
        (fun () ->
          Obs.Trace.set_enabled true;
          Fun.protect
            ~finally:(fun () -> Obs.Trace.set_enabled false)
            (fun () ->
              Obs.Trace.with_span "faultsim.enospc" (fun () -> ());
              of_result (Obs.write_trace ~writer:enospc_writer "trace.json")));
    };
    {
      name = "metrics export hits EPERM";
      group = "obs";
      expect = Must_reject;
      run =
        (fun () ->
          Obs.Metrics.incr (Obs.Metrics.counter "faultsim.obs_probe");
          of_result (Obs.write_metrics ~writer:eperm_writer "metrics.json"));
    };
    {
      name = "trace file in a nonexistent directory";
      group = "obs";
      expect = Must_reject;
      run =
        (fun () ->
          of_result
            (Obs.write_trace "/nonexistent-faultsim-dir/trace.json"));
    };
    {
      name = "flush failure degrades, analysis survives";
      group = "obs";
      expect = Must_flag;
      run =
        (fun () ->
          (* configure both files, fail both writes, then prove the
             observability core (and so the surrounding analysis) is
             still healthy *)
          let saved_t = Obs.trace_file () and saved_m = Obs.metrics_file () in
          Obs.set_trace_file (Some "t.json");
          Obs.set_metrics_file (Some "m.json");
          Fun.protect
            ~finally:(fun () ->
              Obs.set_trace_file saved_t;
              Obs.set_metrics_file saved_m;
              Obs.Trace.set_enabled false)
            (fun () ->
              let diags = Obs.flush ~writer:enospc_writer () in
              let c = Obs.Metrics.counter "faultsim.survivor" in
              let before = Obs.Metrics.value c in
              Obs.Metrics.incr c;
              let alive = Obs.Metrics.value c = before + 1 in
              match (diags, alive) with
              | [], _ -> Uncaught (Failure "failed flush reported no diagnostic")
              | _ :: _, true -> Degraded
              | _ :: _, false ->
                Uncaught (Failure "metrics core corrupted by failed flush")));
    };
  ]

(* -------------------- batch supervisor corruption ------------------ *)

module Journal = Ser_jobs.Journal
module Supervisor = Ser_jobs.Supervisor

(* quick watchdog + no retries unless a scenario overrides *)
let jobs_config =
  {
    Supervisor.default_config with
    Supervisor.timeout_s = 5.;
    grace_s = 0.2;
    retries = 0;
    backoff_base_s = 0.01;
    backoff_max_s = 0.05;
  }

let sh ~id script = Supervisor.job ~id [| "/bin/sh"; "-c"; script |]

let batch_outcome ?(cfg = jobs_config) jobs judge =
  let path = Filename.temp_file "faultsim" ".journal" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      match Journal.create path with
      | Error d -> Graceful d
      | Ok j ->
        Fun.protect
          ~finally:(fun () -> Journal.close j)
          (fun () ->
            match Supervisor.run cfg ~journal:j jobs with
            | Error d -> Graceful d
            | Ok s -> judge s))

let degraded_if_any (s : Supervisor.summary) =
  if s.Supervisor.degraded > 0 then Degraded else Passed

let ok_worker = {|printf '{"ok":true,"result":{"v":1}}'|}

let diag_worker =
  {|printf '{"ok":false,"diag":{"subsystem":"worker","message":"bad input"}}'; exit 2|}

let jobs_scenarios () =
  [
    {
      name = "worker healthy";
      group = "jobs";
      expect = Must_survive;
      run =
        (fun () ->
          batch_outcome [ sh ~id:"h" ok_worker ] (fun s ->
              if s.Supervisor.ok = 1 then Passed else Degraded));
    };
    {
      name = "worker crash (SIGSEGV)";
      group = "jobs";
      expect = Must_flag;
      run =
        (fun () ->
          batch_outcome [ sh ~id:"segv" "kill -SEGV $$" ] degraded_if_any);
    };
    {
      name = "worker killed outright (OOM-style SIGKILL)";
      group = "jobs";
      expect = Must_flag;
      run =
        (fun () ->
          batch_outcome [ sh ~id:"oom" "kill -KILL $$" ] degraded_if_any);
    };
    {
      name = "worker hang hits the watchdog";
      group = "jobs";
      expect = Must_flag;
      run =
        (fun () ->
          batch_outcome
            ~cfg:{ jobs_config with Supervisor.timeout_s = 0.3 }
            [ sh ~id:"hang" "sleep 30" ]
            degraded_if_any);
    };
    {
      name = "worker emits garbage instead of the protocol";
      group = "jobs";
      expect = Must_flag;
      run =
        (fun () ->
          batch_outcome
            [ sh ~id:"noise" "echo not-the-protocol" ]
            degraded_if_any);
    };
    {
      name = "worker reports a clean diagnostic";
      group = "jobs";
      expect = Must_reject;
      run =
        (fun () ->
          batch_outcome [ sh ~id:"diag" diag_worker ] (fun s ->
              if s.Supervisor.failed = 1 then
                Graceful
                  (Diag.error ~subsystem:"jobs"
                     "worker failed cleanly with a structured diagnostic")
              else Degraded));
    };
    {
      name = "flaky worker recovers on retry";
      group = "jobs";
      expect = Must_survive;
      run =
        (fun () ->
          batch_outcome
            ~cfg:{ jobs_config with Supervisor.retries = 2 }
            [
              sh ~id:"flaky"
                (Printf.sprintf
                   {|if [ "$SERTOOL_WORKER_ATTEMPT" -lt 2 ]; then kill -KILL $$; fi; %s|}
                   ok_worker);
            ]
            (fun s -> if s.Supervisor.ok = 1 then Passed else Degraded));
    };
    {
      name = "mixed batch keeps healthy results";
      group = "jobs";
      expect = Must_flag;
      run =
        (fun () ->
          batch_outcome
            ~cfg:{ jobs_config with Supervisor.timeout_s = 0.3; parallel = 2 }
            [
              sh ~id:"good1" ok_worker;
              sh ~id:"segv" "kill -SEGV $$";
              sh ~id:"hang" "sleep 30";
              sh ~id:"good2" ok_worker;
            ]
            (fun s ->
              (* the contract: faults are contained per job and healthy
                 results are never lost *)
              if s.Supervisor.ok = 2 && s.Supervisor.degraded = 2 then Degraded
              else Uncaught (Failure "healthy results lost in mixed batch")));
    };
  ]

(* -------------------- sharded sweep corruption --------------------- *)

module Shard = Ser_jobs.Shard
module Merge = Ser_jobs.Merge

(* a worker whose payload is a deterministic function of its id, so
   bit-identity across runs is meaningful *)
let id_worker id = sh ~id (Printf.sprintf {|printf '{"ok":true,"result":{"id":"%s"}}'|} id)

let run_into ?(cfg = jobs_config) ?shard path jobs =
  match Journal.create path with
  | Error d -> Error d
  | Ok j ->
    Fun.protect
      ~finally:(fun () -> Journal.close j)
      (fun () ->
        match Supervisor.run ?shard cfg ~journal:j jobs with
        | Error d -> Error d
        | Ok _ -> Ok ())

let with_tmp_journals n f =
  let paths =
    List.init n (fun _ -> Filename.temp_file "faultsim-shard" ".journal")
  in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) paths)
    (fun () -> f paths)

let shard_ids = [ "alpha"; "beta"; "gamma"; "delta" ]

let doc_string r = Ser_util.Json.to_string (Merge.results_json r)

(* single-host reference document for [shard_ids] *)
let single_host_doc path =
  match run_into path (List.map id_worker shard_ids) with
  | Error d -> Error d
  | Ok () -> (
    match Journal.replay path with
    | Error d -> Error d
    | Ok st -> Ok (Ser_util.Json.to_string (Journal.final_results_json st)))

let run_shard ~index ~count path =
  let jobs =
    Shard.select { Shard.index; count } ~id:(fun j -> j.Supervisor.id)
      (List.map id_worker shard_ids)
  in
  run_into ~shard:(index, count) path jobs

let expect_2 = { Merge.e_jobs = shard_ids; e_shards = 2 }

let shard_scenarios () =
  [
    {
      name = "sharded sweep merges bit-identically";
      group = "shard";
      expect = Must_survive;
      run =
        (fun () ->
          with_tmp_journals 3 (fun paths ->
              match paths with
              | [ single; s0; s1 ] -> (
                match single_host_doc single with
                | Error d -> Graceful d
                | Ok reference -> (
                  match (run_shard ~index:0 ~count:2 s0,
                         run_shard ~index:1 ~count:2 s1) with
                  | Error d, _ | _, Error d -> Graceful d
                  | Ok (), Ok () -> (
                    match Merge.load [ s0; s1 ] with
                    | Error d -> Graceful d
                    | Ok sources ->
                      let r = Merge.merge ~expect:expect_2 sources in
                      if r.Merge.degraded || r.Merge.conflicts <> [] then
                        Uncaught (Failure "complete merge reported problems")
                      else if doc_string r = reference then Passed
                      else
                        Uncaught
                          (Failure "merged document differs from single-host run"))))
              | _ -> Uncaught (Failure "fixture")));
    };
    {
      name = "corrupt complete record in a shard journal";
      group = "shard";
      expect = Must_reject;
      run =
        (fun () ->
          with_tmp_journals 1 (fun paths ->
              let p = List.hd paths in
              let oc = open_out p in
              output_string oc "this is not a journal record\n";
              close_out oc;
              match Merge.load [ p ] with
              | Error d -> Graceful d
              | Ok _ ->
                Uncaught (Failure "corrupt journal accepted by merge load")));
    };
    {
      name = "duplicated shard journal deduplicates (idempotent re-merge)";
      group = "shard";
      expect = Must_flag;
      run =
        (fun () ->
          with_tmp_journals 3 (fun paths ->
              match paths with
              | [ single; s0; s1 ] -> (
                match single_host_doc single with
                | Error d -> Graceful d
                | Ok reference -> (
                  match (run_shard ~index:0 ~count:2 s0,
                         run_shard ~index:1 ~count:2 s1) with
                  | Error d, _ | _, Error d -> Graceful d
                  | Ok (), Ok () -> (
                    (* the same shard listed twice: every record arrives
                       twice with identical digests *)
                    match Merge.load [ s0; s0; s1 ] with
                    | Error d -> Graceful d
                    | Ok sources ->
                      let r = Merge.merge ~expect:expect_2 sources in
                      if r.Merge.conflicts <> [] then
                        Uncaught (Failure "equal duplicates reported as conflict")
                      else if doc_string r <> reference then
                        Uncaught (Failure "duplicate shard changed the document")
                      else if r.Merge.overlaps <> [] then Degraded
                      else Uncaught (Failure "duplicate shard not flagged"))))
              | _ -> Uncaught (Failure "fixture")));
    };
    {
      name = "same job with different payloads across shards";
      group = "shard";
      expect = Must_reject;
      run =
        (fun () ->
          with_tmp_journals 2 (fun paths ->
              match paths with
              | [ a; b ] -> (
                let run_variant path v =
                  run_into path
                    [
                      sh ~id:"dup"
                        (Printf.sprintf
                           {|printf '{"ok":true,"result":{"v":%d}}'|} v);
                    ]
                in
                match (run_variant a 1, run_variant b 2) with
                | Error d, _ | _, Error d -> Graceful d
                | Ok (), Ok () -> (
                  match Merge.load [ a; b ] with
                  | Error d -> Graceful d
                  | Ok sources -> (
                    let r = Merge.merge sources in
                    match Merge.integrity_error r with
                    | Some d -> Graceful d
                    | None ->
                      Uncaught
                        (Failure
                           "conflicting payloads merged without an \
                            integrity error"))))
              | _ -> Uncaught (Failure "fixture")));
    };
    {
      name = "kill mid-shard: torn tail and gap degrade with a retry set";
      group = "shard";
      expect = Must_flag;
      run =
        (fun () ->
          with_tmp_journals 2 (fun paths ->
              match paths with
              | [ s0; s1 ] -> (
                match run_shard ~index:0 ~count:2 s0 with
                | Error d -> Graceful d
                | Ok () -> (
                  (* shard 1 died mid-write: a Batch_start and then a
                     torn record fragment with no newline *)
                  let oc = open_out s1 in
                  output_string oc
                    (Ser_util.Json.to_string ~indent:false
                       (Journal.event_to_json
                          (Journal.Batch_start
                             {
                               manifest = "";
                               jobs =
                                 List.filter
                                   (fun id -> Shard.owner ~count:2 id = 1)
                                   shard_ids;
                               shard = Some (1, 2);
                             }))
                    ^ "\n");
                  output_string oc {|{"ev":"done","job":"be|};
                  close_out oc;
                  match Merge.load [ s0; s1 ] with
                  | Error d -> Graceful d
                  | Ok sources ->
                    let r = Merge.merge ~expect:expect_2 sources in
                    if not (List.exists (fun s -> s.Merge.src_state.Journal.torn_tail) sources)
                    then Uncaught (Failure "torn tail not detected")
                    else if
                      r.Merge.degraded
                      && Merge.retry_manifest_ids r <> []
                      && r.Merge.conflicts = []
                    then Degraded
                    else
                      Uncaught
                        (Failure "killed shard did not degrade with a retry set")))
              | _ -> Uncaught (Failure "fixture")));
    };
    {
      name = "overlapping assignment: a shard delivers jobs it does not own";
      group = "shard";
      expect = Must_flag;
      run =
        (fun () ->
          with_tmp_journals 1 (fun paths ->
              let p = List.hd paths in
              (* journal claims shard 0/2 but ran the whole manifest *)
              match
                run_into ~shard:(0, 2) p (List.map id_worker shard_ids)
              with
              | Error d -> Graceful d
              | Ok () -> (
                match Merge.load [ p ] with
                | Error d -> Graceful d
                | Ok sources ->
                  let r = Merge.merge ~expect:expect_2 sources in
                  if r.Merge.foreign <> [] && r.Merge.conflicts = [] then
                    Degraded
                  else Uncaught (Failure "foreign jobs not flagged"))));
    };
  ]

(* -------------------- serve daemon corruption ---------------------- *)

module Server = Ser_serve.Server
module Sclient = Ser_serve.Client
module Frame = Ser_serve.Frame
module Wire = Ser_serve.Wire
module Request = Ser_cli.Request
module Json = Ser_util.Json

let serve_tmpdir () =
  let d = Filename.temp_file "faultsim-serve" "" in
  Sys.remove d;
  Unix.mkdir d 0o700;
  d

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
  | exception Unix.Unix_error _ -> ()

(* The daemon under test is a forked child of the test process: the
   serve group runs sequentially on the main domain (like "jobs",
   forking from a pool worker is unsafe) and the child immediately
   drops to one worker so it never touches the inherited pool. *)
let fork_server cfg =
  match Unix.fork () with
  | 0 ->
    (try
       Ser_par.Par.set_jobs 1;
       let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0o644 in
       Unix.dup2 devnull Unix.stdout;
       Unix.dup2 devnull Unix.stderr;
       Unix.close devnull;
       ignore (Server.run cfg)
     with _ -> ());
    Unix._exit 0
  | pid -> pid

let stop_server ?(signal = Sys.sigterm) pid =
  (try Unix.kill pid signal with Unix.Unix_error _ -> ());
  try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()

let client_opts =
  { Sclient.default_opts with Sclient.request_timeout_s = 60.; retries = 2 }

let with_server ?(configure = fun c -> c) f =
  let dir = serve_tmpdir () in
  let socket = Filename.concat dir "d.sock" in
  let cfg =
    configure
      { (Server.default ~socket) with Server.spool_dir = Some dir }
  in
  let addr = Server.Unix_sock socket in
  let pid = fork_server cfg in
  Fun.protect
    ~finally:(fun () ->
      stop_server pid;
      rm_rf dir)
    (fun () ->
      if not (Sclient.wait_ready ~opts:client_opts addr) then
        Uncaught (Failure "serve daemon did not come up")
      else f ~dir ~socket ~addr)

let analyze_req ?id ?isolate ?fault () =
  Request.to_json
    {
      (Request.defaults Request.Analyze (Request.Spec "c17")) with
      Request.id;
      isolate;
      fault;
      vectors = 200;
    }

let raw_connect socket =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket);
  fd

let write_all fd s =
  let n = String.length s in
  let rec go off =
    if off < n then go (off + Unix.write_substring fd s off (n - off))
  in
  go 0

let read_reject fd =
  match Frame.read_frame ~deadline:(Ser_util.Mono.now () +. 30.) fd with
  | Error e ->
    Uncaught (Failure ("no response frame: " ^ Frame.error_to_string e))
  | Ok j -> (
    match Wire.response_of_json j with
    | Ok { Wire.r_status = Wire.Rejected (Wire.Bad_request, msg, _); _ } ->
      Graceful (Diag.error ~subsystem:"serve" "%s" msg)
    | Ok _ -> Uncaught (Failure "daemon accepted a corrupt frame")
    | Error msg -> Uncaught (Failure ("bad envelope: " ^ msg)))

let health_int addr path =
  match Sclient.health ~opts:client_opts addr with
  | Error _ -> None
  | Ok payload ->
    let rec walk j = function
      | [] -> Json.to_int_opt j
      | k :: rest -> (
        match Json.member k j with Some j' -> walk j' rest | None -> None)
    in
    walk payload path

let serve_scenarios () =
  [
    {
      name = "mid-request client disconnect";
      group = "serve";
      expect = Must_survive;
      run =
        (fun () ->
          with_server (fun ~dir:_ ~socket ~addr ->
              let fd = raw_connect socket in
              (match
                 Frame.write_frame fd
                   (analyze_req ~fault:(Request.Sleep_ms 200.) ())
               with
              | Ok () | Error _ -> ());
              Unix.close fd;
              (* the daemon must absorb the dead peer and keep serving *)
              match Sclient.health ~opts:client_opts addr with
              | Ok _ -> Passed
              | Error d -> Graceful d));
    };
    {
      name = "malformed frame payload";
      group = "serve";
      expect = Must_reject;
      run =
        (fun () ->
          with_server (fun ~dir:_ ~socket ~addr:_ ->
              let fd = raw_connect socket in
              Fun.protect
                ~finally:(fun () ->
                  try Unix.close fd with Unix.Unix_error _ -> ())
                (fun () ->
                  write_all fd (Frame.encode_raw "]( not json )[");
                  read_reject fd)));
    };
    {
      name = "oversized frame";
      group = "serve";
      expect = Must_reject;
      run =
        (fun () ->
          with_server
            ~configure:(fun c -> { c with Server.max_frame = 1024 })
            (fun ~dir:_ ~socket ~addr ->
              let fd = raw_connect socket in
              let verdict =
                Fun.protect
                  ~finally:(fun () ->
                    try Unix.close fd with Unix.Unix_error _ -> ())
                  (fun () ->
                    write_all fd
                      (Frame.encode (Json.Str (String.make 4096 'x')));
                    read_reject fd)
              in
              (* shedding the frame must not take the daemon down *)
              match (verdict, Sclient.health ~opts:client_opts addr) with
              | Graceful d, Ok _ -> Graceful d
              | Graceful _, Error _ ->
                Uncaught (Failure "daemon died after oversized frame")
              | other, _ -> other));
    };
    {
      name = "worker crash under a live request";
      group = "serve";
      expect = Must_reject;
      run =
        (fun () ->
          with_server
            ~configure:(fun c ->
              {
                c with
                Server.worker_retries = 0;
                worker_timeout_s = 10.;
                make_worker =
                  Some
                    (fun _req ~spool:_ ->
                      Supervisor.job ~id:"crash"
                        [| "/bin/sh"; "-c"; "kill -SEGV $$" |]);
              })
            (fun ~dir:_ ~socket:_ ~addr ->
              match
                Sclient.call ~opts:client_opts addr
                  (analyze_req ~isolate:true ())
              with
              | Error d ->
                Uncaught (Failure ("transport failure: " ^ Diag.to_string d))
              | Ok
                  {
                    Wire.r_status = Wire.Rejected (Wire.Worker_failed, msg, _);
                    _;
                  } -> (
                (* typed rejection AND the daemon survived its worker *)
                match Sclient.health ~opts:client_opts addr with
                | Ok _ -> Graceful (Diag.error ~subsystem:"serve" "%s" msg)
                | Error _ ->
                  Uncaught (Failure "daemon died with its crashed worker"))
              | Ok _ ->
                Uncaught
                  (Failure "crashed worker did not yield worker_failed")));
    };
    {
      name = "cache directory hits ENOSPC";
      group = "serve";
      expect = Must_flag;
      run =
        (fun () ->
          with_server
            ~configure:(fun c ->
              {
                c with
                Server.cache_dir = Some "/nonexistent-is-ignored";
                cache_writer =
                  Some
                    (fun path _ ->
                      raise (Unix.Unix_error (Unix.ENOSPC, "write", path)));
              })
            (fun ~dir:_ ~socket:_ ~addr ->
              match Sclient.call ~opts:client_opts addr (analyze_req ()) with
              | Error d ->
                Uncaught
                  (Failure ("analysis lost to a full disk: " ^ Diag.to_string d))
              | Ok { Wire.r_status = Wire.Ok_payload _; _ } -> (
                (* the result still reached the client; persistence
                   degraded and said so *)
                match health_int addr [ "cache"; "persist_errors" ] with
                | Some n when n >= 1 -> Degraded
                | _ ->
                  Uncaught
                    (Failure "persist failure left no trace in health"))
              | Ok _ -> Uncaught (Failure "analyze rejected under ENOSPC")));
    };
    {
      name = "overload burst sheds with typed rejections";
      group = "serve";
      expect = Must_flag;
      run =
        (fun () ->
          with_server
            ~configure:(fun c -> { c with Server.max_queue = 1 })
            (fun ~dir:_ ~socket ~addr ->
              let n = 5 in
              let fds =
                List.init n (fun _ ->
                    let fd = raw_connect socket in
                    (match
                       Frame.write_frame fd
                         (analyze_req ~fault:(Request.Sleep_ms 300.) ())
                     with
                    | Ok () | Error _ -> ());
                    fd)
              in
              let deadline = Ser_util.Mono.now () +. 60. in
              let statuses =
                List.map
                  (fun fd ->
                    Fun.protect
                      ~finally:(fun () ->
                        try Unix.close fd with Unix.Unix_error _ -> ())
                      (fun () ->
                        match Frame.read_frame ~deadline fd with
                        | Error _ -> `Lost
                        | Ok j -> (
                          match Wire.response_of_json j with
                          | Ok { Wire.r_status = Wire.Ok_payload _; _ } -> `Ok
                          | Ok
                              {
                                Wire.r_status =
                                  Wire.Rejected (Wire.Overloaded, _, _);
                                _;
                              } ->
                            `Shed
                          | _ -> `Lost)))
                  fds
              in
              let count tag = List.length (List.filter (( = ) tag) statuses) in
              let ok = count `Ok and shed = count `Shed in
              match Sclient.health ~opts:client_opts addr with
              | Error _ -> Uncaught (Failure "daemon died under the burst")
              | Ok _ ->
                if ok >= 1 && shed >= 1 && ok + shed = n then Degraded
                else
                  Uncaught
                    (Failure
                       (Printf.sprintf
                          "burst of %d: %d ok, %d shed, %d lost" n ok shed
                          (n - ok - shed)))));
    };
    {
      name = "kill -9 then restart reuses the warm cache";
      group = "serve";
      expect = Must_survive;
      run =
        (fun () ->
          let dir = serve_tmpdir () in
          Fun.protect
            ~finally:(fun () -> rm_rf dir)
            (fun () ->
              let socket = Filename.concat dir "d.sock" in
              let cfg =
                {
                  (Server.default ~socket) with
                  Server.cache_dir = Some (Filename.concat dir "cache");
                  spool_dir = Some dir;
                }
              in
              let addr = Server.Unix_sock socket in
              let req = analyze_req () in
              let pid = fork_server cfg in
              let first =
                if not (Sclient.wait_ready ~opts:client_opts addr) then
                  Error "daemon did not come up"
                else
                  match Sclient.call ~opts:client_opts addr req with
                  | Ok { Wire.r_status = Wire.Ok_payload p; _ } -> Ok p
                  | Ok _ -> Error "first analyze rejected"
                  | Error d -> Error (Diag.to_string d)
              in
              stop_server ~signal:Sys.sigkill pid;
              match first with
              | Error msg -> Uncaught (Failure msg)
              | Ok p1 -> (
                let pid2 = fork_server cfg in
                Fun.protect
                  ~finally:(fun () -> stop_server pid2)
                  (fun () ->
                    if not (Sclient.wait_ready ~opts:client_opts addr) then
                      Uncaught (Failure "daemon did not restart")
                    else
                      match Sclient.call ~opts:client_opts addr req with
                      | Ok
                          {
                            Wire.r_status = Wire.Ok_payload p2;
                            r_cache_hit = true;
                            _;
                          }
                        when p2 = p1 ->
                        Passed
                      | Ok { Wire.r_status = Wire.Ok_payload _; _ } ->
                        Uncaught
                          (Failure
                             "restarted daemon recomputed instead of \
                              reusing the persisted cache")
                      | Ok _ -> Uncaught (Failure "replay after restart failed")
                      | Error d -> Graceful d))));
    };
  ]

let scenarios () =
  parser_scenarios () @ engine_scenarios () @ analysis_scenarios ()
  @ odc_scenarios () @ optimizer_scenarios () @ util_scenarios ()
  @ obs_scenarios () @ jobs_scenarios () @ shard_scenarios ()
  @ serve_scenarios ()

let run_all () =
  let serve, rest =
    List.partition (fun s -> s.group = "serve") (scenarios ())
  in
  (* the serve scenarios start their daemon with Unix.fork, which OCaml
     5 refuses once the process has spawned any domain: run them before
     anything touches the pool *)
  let served = List.map (fun s -> (s, run_scenario s)) serve in
  let par, seq =
    List.partition (fun s -> s.group <> "jobs" && s.group <> "shard") rest
  in
  let ps = Array.of_list par in
  let outcomes = Ser_par.Par.parallel_map ~chunk:1 run_scenario ps in
  let par_results =
    Array.to_list (Array.mapi (fun i o -> (ps.(i), o)) outcomes)
  in
  (* the jobs and shard scenarios spawn child processes; fork from a
     pool worker domain is unsafe in a multicore runtime, so they stay
     on the main domain, after the pooled groups *)
  par_results @ List.map (fun s -> (s, run_scenario s)) seq @ served
