(* Tests for the crash-contained batch supervisor (lib/jobs).

   Jobs here are tiny /bin/sh scripts speaking the worker protocol, so
   the suite exercises the real fork/exec + pipe + watchdog machinery
   without needing the sertool binary. *)

module Json = Ser_util.Json
module Diag = Ser_util.Diag
module Journal = Ser_jobs.Journal
module Supervisor = Ser_jobs.Supervisor
module Shard = Ser_jobs.Shard
module Merge = Ser_jobs.Merge

let tmp_path suffix =
  let p = Filename.temp_file "test_jobs" suffix in
  at_exit (fun () -> try Sys.remove p with Sys_error _ -> ());
  p

let sh ?env ~id script =
  Supervisor.job ?env ~id [| "/bin/sh"; "-c"; script |]

(* a deterministic healthy worker: emits the protocol document *)
let ok_job ~id v =
  sh ~id (Printf.sprintf {|printf '{"ok":true,"result":{"job":"%s","v":%d}}'|} id v)

let diag_job ~id =
  sh ~id
    {|printf '{"ok":false,"diag":{"subsystem":"worker","message":"bad input","context":{"file":"x.bench"}}}'; exit 2|}

let fast_config =
  {
    Supervisor.default_config with
    Supervisor.timeout_s = 10.;
    grace_s = 0.2;
    retries = 0;
    backoff_base_s = 0.01;
    backoff_max_s = 0.05;
  }

let run_batch ?stop ?on_event ?resume ?shard cfg ~journal_path jobs =
  match Journal.create ?resume journal_path with
  | Error d -> Alcotest.fail (Diag.to_string d)
  | Ok j ->
    Fun.protect
      ~finally:(fun () -> Journal.close j)
      (fun () ->
        match
          Supervisor.run ?stop ?on_event ?shard cfg ~journal:j ?resume jobs
        with
        | Error d -> Alcotest.fail (Diag.to_string d)
        | Ok s -> s)

let results_of_journal path =
  match Journal.replay path with
  | Error d -> Alcotest.fail (Diag.to_string d)
  | Ok st -> Json.to_string ~indent:false (Journal.final_results_json st)

(* ------------------------------------------------------------------ *)

let test_backoff () =
  let cfg =
    { fast_config with Supervisor.backoff_base_s = 1.; backoff_max_s = 30. }
  in
  let d1 = Supervisor.backoff_delay cfg ~job_id:"a" ~attempt:1 in
  let d1' = Supervisor.backoff_delay cfg ~job_id:"a" ~attempt:1 in
  Alcotest.(check (float 0.)) "deterministic" d1 d1';
  (* jitter stays within [0.75, 1.25) of the exponential schedule *)
  for attempt = 1 to 8 do
    let exp = Float.min 30. (Float.pow 2. (float_of_int (attempt - 1))) in
    let d = Supervisor.backoff_delay cfg ~job_id:"a" ~attempt in
    Alcotest.(check bool)
      (Printf.sprintf "attempt %d in band (%.3f vs %.3f)" attempt d exp)
      true
      (d >= 0.75 *. exp && d < 1.25 *. exp)
  done;
  (* the cap holds even for absurd attempts *)
  let d = Supervisor.backoff_delay cfg ~job_id:"a" ~attempt:60 in
  Alcotest.(check bool) "capped" true (d < 30. *. 1.25);
  (* different jobs get different jitter (decorrelated retry storms) *)
  let spread =
    List.exists
      (fun id ->
        Supervisor.backoff_delay cfg ~job_id:id ~attempt:1
        <> Supervisor.backoff_delay cfg ~job_id:"a" ~attempt:1)
      [ "b"; "c"; "d"; "e" ]
  in
  Alcotest.(check bool) "jitter varies across jobs" true spread

let test_ok_batch () =
  let jobs = List.init 4 (fun i -> ok_job ~id:(Printf.sprintf "j%d" i) i) in
  let path = tmp_path ".journal" in
  let cfg = { fast_config with Supervisor.parallel = 2 } in
  let s = run_batch cfg ~journal_path:path jobs in
  Alcotest.(check int) "ok" 4 s.Supervisor.ok;
  Alcotest.(check int) "failed" 0 s.Supervisor.failed;
  Alcotest.(check int) "degraded" 0 s.Supervisor.degraded;
  Alcotest.(check bool) "not drained" false s.Supervisor.drained;
  (* outcomes come back in job-list order with correct digests *)
  List.iteri
    (fun i (o : Supervisor.outcome) ->
      Alcotest.(check string)
        "order" (Printf.sprintf "j%d" i) o.Supervisor.o_job.Supervisor.id;
      let expect =
        Digest.to_hex
          (Digest.string (Json.to_string ~indent:false o.Supervisor.o_payload))
      in
      Alcotest.(check string) "digest" expect o.Supervisor.o_digest)
    s.Supervisor.outcomes

let test_clean_error_no_retry () =
  let path = tmp_path ".journal" in
  let cfg = { fast_config with Supervisor.retries = 3 } in
  let starts = ref 0 in
  let on_event = function Journal.Started _ -> incr starts | _ -> () in
  let s = run_batch ~on_event cfg ~journal_path:path [ diag_job ~id:"bad" ] in
  Alcotest.(check int) "failed" 1 s.Supervisor.failed;
  Alcotest.(check int) "degraded" 0 s.Supervisor.degraded;
  (* a clean diagnostic is permanent: no retry despite the budget *)
  Alcotest.(check int) "single attempt" 1 !starts;
  let o = List.hd s.Supervisor.outcomes in
  Alcotest.(check bool) "payload carries the diag" true
    (Json.member "diag" o.Supervisor.o_payload <> None)

let test_crash_degraded () =
  let path = tmp_path ".journal" in
  let cfg = { fast_config with Supervisor.retries = 1 } in
  let starts = ref 0 in
  let on_event = function Journal.Started _ -> incr starts | _ -> () in
  let s =
    run_batch ~on_event cfg ~journal_path:path
      [ sh ~id:"boom" "kill -SEGV $$" ]
  in
  Alcotest.(check int) "degraded" 1 s.Supervisor.degraded;
  Alcotest.(check int) "attempts" 2 !starts;
  let o = List.hd s.Supervisor.outcomes in
  Alcotest.(check (option string))
    "class" (Some "crash")
    (Option.bind (Json.member "class" o.Supervisor.o_payload) Json.to_str_opt)

let test_flaky_recovers () =
  (* crashes on attempt 1, succeeds on attempt 2 — the supervisor's
     SERTOOL_WORKER_ATTEMPT env drives the switch *)
  let path = tmp_path ".journal" in
  let cfg = { fast_config with Supervisor.retries = 2 } in
  let s =
    run_batch cfg ~journal_path:path
      [
        sh ~id:"flaky"
          {|if [ "$SERTOOL_WORKER_ATTEMPT" -lt 2 ]; then kill -KILL $$; fi; printf '{"ok":true,"result":42}'|};
      ]
  in
  Alcotest.(check int) "ok" 1 s.Supervisor.ok;
  let o = List.hd s.Supervisor.outcomes in
  Alcotest.(check int) "attempts" 2 o.Supervisor.o_attempts

let test_hang_watchdog () =
  let path = tmp_path ".journal" in
  let cfg = { fast_config with Supervisor.timeout_s = 0.3 } in
  let t0 = Unix.gettimeofday () in
  let s = run_batch cfg ~journal_path:path [ sh ~id:"stuck" "sleep 30" ] in
  let elapsed = Unix.gettimeofday () -. t0 in
  Alcotest.(check int) "degraded" 1 s.Supervisor.degraded;
  Alcotest.(check bool)
    (Printf.sprintf "watchdog fired promptly (%.1fs)" elapsed)
    true (elapsed < 10.);
  let o = List.hd s.Supervisor.outcomes in
  Alcotest.(check (option string))
    "class" (Some "hang")
    (Option.bind (Json.member "class" o.Supervisor.o_payload) Json.to_str_opt)

let test_garbage_output () =
  let path = tmp_path ".journal" in
  let s =
    run_batch fast_config ~journal_path:path
      [ sh ~id:"noise" "echo 'this is not the protocol'" ]
  in
  Alcotest.(check int) "degraded" 1 s.Supervisor.degraded;
  let o = List.hd s.Supervisor.outcomes in
  Alcotest.(check (option string))
    "class" (Some "garbage")
    (Option.bind (Json.member "class" o.Supervisor.o_payload) Json.to_str_opt)

let test_torn_tail_replay () =
  let path = tmp_path ".journal" in
  let jobs = [ ok_job ~id:"a" 1; ok_job ~id:"b" 2 ] in
  ignore (run_batch fast_config ~journal_path:path jobs);
  (* chop the file mid-record: replay must drop the torn tail only *)
  let full = In_channel.with_open_bin path In_channel.input_all in
  let torn = tmp_path ".journal" in
  Out_channel.with_open_bin torn (fun oc ->
      Out_channel.output_string oc (String.sub full 0 (String.length full - 7)));
  (match Journal.replay torn with
  | Error d -> Alcotest.fail (Diag.to_string d)
  | Ok st ->
    Alcotest.(check bool) "torn tail flagged" true st.Journal.torn_tail;
    Alcotest.(check bool) "records survive" true (st.Journal.records > 0));
  (* a corrupt *complete* line is an error, not a silent drop *)
  let corrupt = tmp_path ".journal" in
  Out_channel.with_open_bin corrupt (fun oc ->
      Out_channel.output_string oc "{\"ev\":\"batch_start\"}\nnot json at all\n");
  match Journal.replay corrupt with
  | Ok _ -> Alcotest.fail "accepted corrupt journal"
  | Error _ -> ()

let test_resume_skips () =
  let path = tmp_path ".journal" in
  let jobs = [ ok_job ~id:"a" 1; diag_job ~id:"b"; ok_job ~id:"c" 3 ] in
  let s1 = run_batch fast_config ~journal_path:path jobs in
  Alcotest.(check int) "first run ok" 2 s1.Supervisor.ok;
  let r1 = results_of_journal path in
  let st =
    match Journal.replay path with
    | Ok st -> st
    | Error d -> Alcotest.fail (Diag.to_string d)
  in
  let starts = ref 0 in
  let on_event = function Journal.Started _ -> incr starts | _ -> () in
  let s2 = run_batch ~on_event ~resume:st fast_config ~journal_path:path jobs in
  Alcotest.(check int) "all skipped" 3 s2.Supervisor.skipped;
  Alcotest.(check int) "nothing re-ran" 0 !starts;
  Alcotest.(check int) "ok carried over" 2 s2.Supervisor.ok;
  Alcotest.(check int) "failed carried over" 1 s2.Supervisor.failed;
  List.iter
    (fun (o : Supervisor.outcome) ->
      Alcotest.(check bool) "from journal" true o.Supervisor.o_from_journal)
    s2.Supervisor.outcomes;
  Alcotest.(check string) "results identical" r1 (results_of_journal path)

let test_resume_wrong_batch () =
  let path = tmp_path ".journal" in
  ignore (run_batch fast_config ~journal_path:path [ ok_job ~id:"a" 1 ]);
  let st =
    match Journal.replay path with
    | Ok st -> st
    | Error d -> Alcotest.fail (Diag.to_string d)
  in
  match
    Journal.create (tmp_path ".journal")
  with
  | Error d -> Alcotest.fail (Diag.to_string d)
  | Ok j ->
    Fun.protect
      ~finally:(fun () -> Journal.close j)
      (fun () ->
        match
          Supervisor.run fast_config ~journal:j ~resume:st
            [ ok_job ~id:"different" 9 ]
        with
        | Ok _ -> Alcotest.fail "resumed against the wrong batch"
        | Error d ->
          let msg = Diag.to_string d in
          Alcotest.(check bool) ("mentions batch: " ^ msg) true
            (Ser_util.Diag.context_value d "line" = None
            && String.length msg > 0))

let test_drain_stop () =
  let path = tmp_path ".journal" in
  let stopped = ref false in
  let jobs =
    sh ~id:"slow" "sleep 30"
    :: List.init 3 (fun i -> ok_job ~id:(Printf.sprintf "after%d" i) i)
  in
  let saw_started = ref false in
  let on_event = function
    | Journal.Started { job = "slow"; _ } -> saw_started := true
    | _ -> ()
  in
  let stop () =
    (* request drain as soon as the slow job is in flight *)
    if !saw_started then stopped := true;
    !stopped
  in
  let cfg = { fast_config with Supervisor.parallel = 1; timeout_s = 30. } in
  let s = run_batch ~stop ~on_event cfg ~journal_path:path jobs in
  Alcotest.(check bool) "drained" true s.Supervisor.drained;
  Alcotest.(check int) "interrupted" 1 s.Supervisor.interrupted;
  (* the queued healthy jobs were never started, and nothing was lost *)
  Alcotest.(check int) "ok" 0 s.Supervisor.ok;
  match Journal.replay path with
  | Error d -> Alcotest.fail (Diag.to_string d)
  | Ok st ->
    Alcotest.(check int) "no finals" 0 (List.length st.Journal.finals)

(* The resilience contract, as a property: take a completed batch's
   journal, truncate it at *any* byte boundary (simulating a SIGKILL
   mid-write), resume from the prefix — the final results document is
   bit-identical to the uninterrupted run's. *)
let truncation_resume_prop =
  let jobs () =
    [
      ok_job ~id:"a" 1;
      ok_job ~id:"b" 2;
      diag_job ~id:"c";
      ok_job ~id:"d" 4;
      ok_job ~id:"e" 5;
    ]
  in
  let reference =
    lazy
      (let path = tmp_path ".journal" in
       ignore (run_batch fast_config ~journal_path:path (jobs ()));
       ( In_channel.with_open_bin path In_channel.input_all,
         results_of_journal path ))
  in
  QCheck.Test.make ~count:25 ~name:"truncate journal anywhere + resume = bit-identical"
    QCheck.(float_bound_inclusive 1.)
    (fun frac ->
      let full, expected = Lazy.force reference in
      let cut = int_of_float (frac *. float_of_int (String.length full)) in
      let cut = min cut (String.length full) in
      let path = tmp_path ".journal" in
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc (String.sub full 0 cut));
      let st =
        match Journal.replay path with
        | Ok st -> st
        | Error d -> QCheck.Test.fail_report (Diag.to_string d)
      in
      ignore (run_batch ~resume:st fast_config ~journal_path:path (jobs ()));
      String.equal expected (results_of_journal path))

(* ------------------- sharded sweeps and merge -------------------- *)

let test_shard_assignment () =
  (match Shard.of_string "0/3" with
  | Ok t -> Alcotest.(check string) "roundtrip" "0/3" (Shard.to_string t)
  | Error e -> Alcotest.fail e);
  List.iter
    (fun bad ->
      match Shard.of_string bad with
      | Ok _ -> Alcotest.failf "accepted %S" bad
      | Error _ -> ())
    [ "3/3"; "-1/3"; "0/0"; "x/y"; "1"; "1/"; "/3"; "1/2/3"; "" ];
  let ids = List.init 40 (fun i -> Printf.sprintf "job%d" i) in
  List.iter
    (fun id -> Alcotest.(check int) "1-way" 0 (Shard.owner ~count:1 id))
    ids;
  (* a 3-way split partitions the manifest: every id in exactly one
     shard, manifest order preserved within each *)
  let n = 3 in
  let parts =
    List.init n (fun index -> Shard.select { Shard.index; count = n } ~id:Fun.id ids)
  in
  Alcotest.(check int) "partition covers" (List.length ids)
    (List.length (List.concat parts));
  List.iteri
    (fun i part ->
      List.iter
        (fun id ->
          Alcotest.(check int) "owner agrees" i (Shard.owner ~count:n id);
          Alcotest.(check bool) "mine agrees" true
            (Shard.mine { Shard.index = i; count = n } id))
        part;
      Alcotest.(check (list string))
        "manifest order"
        (List.filter (fun id -> List.mem id part) ids)
        part)
    parts

let load_or_fail paths =
  match Merge.load paths with
  | Ok s -> s
  | Error d -> Alcotest.fail (Diag.to_string d)

let merged_doc r = Json.to_string ~indent:false (Merge.results_json r)

let test_merge_conflict_and_dedup () =
  let j1 = tmp_path ".journal" and j2 = tmp_path ".journal" in
  ignore (run_batch fast_config ~journal_path:j1 [ ok_job ~id:"a" 1 ]);
  ignore (run_batch fast_config ~journal_path:j2 [ ok_job ~id:"a" 2 ]);
  (* same job id, different payloads: a typed integrity violation *)
  let r = Merge.merge (load_or_fail [ j1; j2 ]) in
  Alcotest.(check int) "one conflict" 1 (List.length r.Merge.conflicts);
  (match Merge.integrity_error r with
  | None -> Alcotest.fail "conflict did not trip the integrity check"
  | Some d ->
    Alcotest.(check bool) "names the job" true
      (let msg = Diag.to_string d in
       String.length msg > 0));
  (* the same journal twice is an overlap, not a conflict, and the
     merged document is unchanged: re-merge is idempotent *)
  let r1 = Merge.merge (load_or_fail [ j1 ]) in
  let r2 = Merge.merge (load_or_fail [ j1; j1 ]) in
  Alcotest.(check (list string)) "overlap flagged" [ "a" ] r2.Merge.overlaps;
  Alcotest.(check int) "no conflicts" 0 (List.length r2.Merge.conflicts);
  Alcotest.(check bool) "no integrity error" true
    (Merge.integrity_error r2 = None);
  Alcotest.(check string) "idempotent" (merged_doc r1) (merged_doc r2)

let test_merge_gap_retry () =
  let ids = [ "a"; "b"; "c"; "d" ] in
  let mine = Shard.select { Shard.index = 0; count = 2 } ~id:Fun.id ids in
  let theirs = List.filter (fun id -> not (List.mem id mine)) ids in
  let path = tmp_path ".journal" in
  ignore
    (run_batch ~shard:(0, 2) fast_config ~journal_path:path
       (List.map (fun id -> ok_job ~id 1) mine));
  (* merging only shard 0 of 2: a gap, not a failure *)
  let r =
    Merge.merge
      ~expect:{ Merge.e_jobs = ids; e_shards = 2 }
      (load_or_fail [ path ])
  in
  Alcotest.(check bool) "degraded" true r.Merge.degraded;
  Alcotest.(check (list string))
    "missing jobs" (List.sort compare theirs) r.Merge.missing_jobs;
  Alcotest.(check (list int)) "missing shard" [ 1 ] r.Merge.missing_shards;
  Alcotest.(check (list string))
    "retry set" r.Merge.missing_jobs (Merge.retry_manifest_ids r);
  Alcotest.(check bool) "gaps are not integrity errors" true
    (Merge.integrity_error r = None);
  match Merge.results_json r with
  | Json.Obj fields ->
    Alcotest.(check bool) "document says degraded" true
      (List.mem_assoc "merge" fields)
  | _ -> Alcotest.fail "results not an object"

(* The sharding contract, as a property: split the manifest across a
   random shard count, SIGKILL every shard at a random byte of its
   journal (truncation), resume each, then merge — the merged results
   document is bit-identical to the single-host run's. *)
let merge_determinism_prop =
  let all_jobs () =
    [
      ok_job ~id:"alpha" 1;
      ok_job ~id:"beta" 2;
      ok_job ~id:"gamma" 3;
      diag_job ~id:"delta";
      ok_job ~id:"epsilon" 5;
      ok_job ~id:"zeta" 6;
    ]
  in
  let ids = List.map (fun (j : Supervisor.job) -> j.Supervisor.id) (all_jobs ()) in
  let reference =
    lazy
      (let path = tmp_path ".journal" in
       ignore (run_batch fast_config ~journal_path:path (all_jobs ()));
       results_of_journal path)
  in
  QCheck.Test.make ~count:10
    ~name:"shard + truncate + resume + merge = bit-identical to single-host"
    QCheck.(
      pair (int_range 1 4)
        (array_of_size (Gen.return 4) (float_bound_inclusive 1.)))
    (fun (n, fracs) ->
      (* shrinking may step outside the generator's range; clamp *)
      let n = max 1 (min 4 n) in
      let frac i =
        if Array.length fracs = 0 then 1. else fracs.(i mod Array.length fracs)
      in
      let expected = Lazy.force reference in
      let paths = List.init n (fun _ -> tmp_path ".journal") in
      List.iteri
        (fun i path ->
          let mine =
            Shard.select { Shard.index = i; count = n }
              ~id:(fun (j : Supervisor.job) -> j.Supervisor.id)
              (all_jobs ())
          in
          ignore (run_batch ~shard:(i, n) fast_config ~journal_path:path mine);
          (* cut the shard's journal at an arbitrary byte and resume *)
          let full = In_channel.with_open_bin path In_channel.input_all in
          let cut =
            min (String.length full)
              (int_of_float (frac i *. float_of_int (String.length full)))
          in
          Out_channel.with_open_bin path (fun oc ->
              Out_channel.output_string oc (String.sub full 0 cut));
          let st =
            match Journal.replay path with
            | Ok st -> st
            | Error d -> QCheck.Test.fail_report (Diag.to_string d)
          in
          ignore
            (run_batch ~resume:st ~shard:(i, n) fast_config ~journal_path:path
               mine))
        paths;
      let r =
        Merge.merge
          ~expect:{ Merge.e_jobs = ids; e_shards = n }
          (load_or_fail paths)
      in
      (match Merge.integrity_error r with
      | Some d -> QCheck.Test.fail_report (Diag.to_string d)
      | None -> ());
      (not r.Merge.degraded) && String.equal expected (merged_doc r))

let event_of_json_total_prop =
  let valid =
    List.map Journal.event_to_json
      [
        Journal.Batch_start { manifest = "m"; jobs = [ "a"; "b" ]; shard = None };
        Journal.Batch_start { manifest = "m"; jobs = []; shard = Some (1, 3) };
        Journal.Enqueued { job = "a" };
        Journal.Started { job = "a"; attempt = 2 };
        Journal.Attempt_failed
          { job = "a"; attempt = 1; cls = "hang"; detail = "d"; backoff_s = 0.5 };
        Journal.Interrupted { job = "b"; attempt = 1 };
        Journal.Done
          {
            job = "a";
            status = "ok";
            digest = "0f";
            payload = Json.Obj [ ("total", Json.Num 1.5) ];
          };
        Journal.Batch_end { ok = 1; failed = 0; degraded = 1; interrupted = 0 };
      ]
  in
  Json_gen.total_prop ~name:"event_of_json is total" ~valid
    Journal.event_of_json

let () =
  Alcotest.run "ser_jobs"
    [
      ( "supervisor",
        [
          Alcotest.test_case "backoff schedule" `Quick test_backoff;
          Alcotest.test_case "healthy batch" `Quick test_ok_batch;
          Alcotest.test_case "clean error is permanent" `Quick
            test_clean_error_no_retry;
          Alcotest.test_case "crash -> retry -> degraded" `Quick
            test_crash_degraded;
          Alcotest.test_case "flaky job recovers" `Quick test_flaky_recovers;
          Alcotest.test_case "hang hits the watchdog" `Quick test_hang_watchdog;
          Alcotest.test_case "garbage output" `Quick test_garbage_output;
          Alcotest.test_case "drain on stop" `Quick test_drain_stop;
        ] );
      ( "journal",
        [
          Alcotest.test_case "torn tail replay" `Quick test_torn_tail_replay;
          Alcotest.test_case "resume skips finals" `Quick test_resume_skips;
          Alcotest.test_case "resume wrong batch" `Quick test_resume_wrong_batch;
          QCheck_alcotest.to_alcotest truncation_resume_prop;
          QCheck_alcotest.to_alcotest event_of_json_total_prop;
        ] );
      ( "shard",
        [
          Alcotest.test_case "assignment partitions the manifest" `Quick
            test_shard_assignment;
          Alcotest.test_case "merge: conflict rejected, overlap deduped" `Quick
            test_merge_conflict_and_dedup;
          Alcotest.test_case "merge: gaps degrade with a retry set" `Quick
            test_merge_gap_retry;
          QCheck_alcotest.to_alcotest merge_determinism_prop;
        ] );
    ]
