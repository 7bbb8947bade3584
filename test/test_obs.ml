module Obs = Ser_obs.Obs
module Json = Ser_util.Json
module Diag = Ser_util.Diag

(* ---------------- metrics: counters, gauges, histograms ----------- *)

let test_counter_math () =
  let c = Obs.Metrics.counter "test.counter_math" in
  Alcotest.(check int) "starts at zero" 0 (Obs.Metrics.value c);
  Obs.Metrics.incr c;
  Obs.Metrics.add c 41;
  Alcotest.(check int) "incr + add" 42 (Obs.Metrics.value c);
  let c' = Obs.Metrics.counter "test.counter_math" in
  Obs.Metrics.incr c';
  Alcotest.(check int) "same name is same counter" 43 (Obs.Metrics.value c)

let test_gauge_math () =
  let g = Obs.Metrics.gauge "test.gauge_math" in
  Obs.Metrics.set_gauge g 1.5;
  Obs.Metrics.add_gauge g 2.25;
  Alcotest.(check (float 1e-12)) "set + add" 3.75 (Obs.Metrics.gauge_value g);
  Alcotest.(check bool) "find_gauge hits" true
    (Obs.Metrics.find_gauge "test.gauge_math" <> None);
  Alcotest.(check bool) "find_counter misses on a gauge name" true
    (Obs.Metrics.find_counter "test.gauge_math" = None)

(* bucket k >= 1 covers [2^(k-1), 2^k); bucket 0 covers v <= 0, and the
   snapshot labels each bucket with its lower bound *)
let test_histogram_buckets () =
  let h = Obs.Metrics.histogram "test.histo_buckets" in
  List.iter (Obs.Metrics.observe h) [ -3; 0; 1; 2; 3; 4; 7; 8; 1024 ];
  Alcotest.(check int) "count" 9 (Obs.Metrics.histogram_count h);
  Alcotest.(check int) "sum" 1046 (Obs.Metrics.histogram_sum h);
  let buckets =
    match Obs.Metrics.snapshot () with
    | Json.Obj fields -> (
      match List.assoc "histograms" fields with
      | Json.Obj hs -> (
        match List.assoc "test.histo_buckets" hs with
        | Json.Obj h_fields -> (
          match List.assoc "buckets" h_fields with
          | Json.Obj bs ->
            List.map (fun (k, v) ->
                match v with Json.Num n -> (k, int_of_float n) | _ -> (k, -1))
              bs
          | _ -> [])
        | _ -> [])
      | _ -> [])
    | _ -> []
  in
  let count label = try List.assoc label buckets with Not_found -> 0 in
  Alcotest.(check int) "bucket 0 holds v <= 0" 2 (count "0");
  Alcotest.(check int) "bucket 1 holds {1}" 1 (count "1");
  Alcotest.(check int) "bucket 2 holds {2,3}" 2 (count "2");
  Alcotest.(check int) "bucket 4 holds {4..7}" 2 (count "4");
  Alcotest.(check int) "bucket 8 holds {8..15}" 1 (count "8");
  Alcotest.(check int) "bucket 1024" 1 (count "1024")

let test_snapshot_roundtrip () =
  ignore (Obs.Metrics.counter "test.snapshot_zero");
  let rendered = Json.to_string (Obs.Metrics.snapshot ()) in
  match Json.of_string rendered with
  | Error msg -> Alcotest.failf "snapshot does not parse: %s" msg
  | Ok (Json.Obj fields) ->
    Alcotest.(check bool) "has counters/gauges/histograms" true
      (List.mem_assoc "counters" fields
      && List.mem_assoc "gauges" fields
      && List.mem_assoc "histograms" fields);
    (* zero-valued metrics are included: a probe that never fired is
       information too *)
    let counters =
      match List.assoc "counters" fields with
      | Json.Obj cs -> List.map fst cs
      | _ -> []
    in
    Alcotest.(check bool) "zero counter present" true
      (List.mem "test.snapshot_zero" counters);
    Alcotest.(check bool) "counters sorted by name" true
      (List.sort String.compare counters = counters)
  | Ok _ -> Alcotest.fail "snapshot is not an object"

let test_reset_prefix () =
  let a = Obs.Metrics.counter "test.reset.a" in
  let b = Obs.Metrics.counter "test.keep.b" in
  Obs.Metrics.add a 5;
  Obs.Metrics.add b 7;
  Obs.Metrics.reset ~prefix:"test.reset." ();
  Alcotest.(check int) "matching prefix zeroed" 0 (Obs.Metrics.value a);
  Alcotest.(check int) "other prefix kept" 7 (Obs.Metrics.value b);
  Alcotest.(check bool) "handle survives reset" true
    (Obs.Metrics.find_counter "test.reset.a" <> None)

(* ---------------- tracing: span trees round-trip ------------------ *)

type tree = Node of string * tree list

let rec walk (Node (name, children)) =
  let sp = Obs.Trace.start name in
  List.iter walk children;
  Obs.Trace.finish sp

let tree_gen =
  QCheck.Gen.(
    sized @@ fix (fun self n ->
        let name = oneofl [ "alpha"; "beta"; "gamma"; "x.y" ] in
        if n <= 0 then map (fun s -> Node (s, [])) name
        else
          map2
            (fun s kids -> Node (s, kids))
            name
            (list_size (int_bound 3) (self (n / 2)))))

let rec print_tree (Node (name, kids)) =
  name ^ "(" ^ String.concat "," (List.map print_tree kids) ^ ")"

let tree_arb = QCheck.make ~print:print_tree tree_gen

let events_of_doc doc =
  match Json.member "traceEvents" doc with
  | Some (Json.List evs) -> evs
  | _ -> Alcotest.fail "no traceEvents list"

let str_field k ev =
  match Json.member k ev with Some (Json.Str s) -> Some s | _ -> None

let num_field k ev =
  match Json.member k ev with Some (Json.Num n) -> Some n | _ -> None

(* the exported invariant: per tid, B/E events are balanced and properly
   nested — every E closes the name on top of the stack, and no stack is
   left open at the end *)
let check_balanced evs =
  let stacks : (int, string list) Hashtbl.t = Hashtbl.create 4 in
  let get tid = Option.value ~default:[] (Hashtbl.find_opt stacks tid) in
  List.iter
    (fun ev ->
      match (str_field "ph" ev, num_field "tid" ev, str_field "name" ev) with
      | Some "B", Some tid, Some name ->
        let tid = int_of_float tid in
        Hashtbl.replace stacks tid (name :: get tid)
      | Some "E", Some tid, Some name -> (
        let tid = int_of_float tid in
        match get tid with
        | top :: rest ->
          if top <> name then
            QCheck.Test.fail_reportf "E %s closes open span %s" name top;
          Hashtbl.replace stacks tid rest
        | [] -> QCheck.Test.fail_reportf "orphan E %s survived export" name)
      | Some "E", _, _ | Some "B", _, _ ->
        QCheck.Test.fail_reportf "B/E event missing tid or name"
      | _ -> ())
    evs;
  Hashtbl.iter
    (fun tid stack ->
      if stack <> [] then
        QCheck.Test.fail_reportf "tid %d left %d spans open" tid
          (List.length stack))
    stacks;
  true

let span_tree_roundtrip_prop =
  QCheck.Test.make ~count:30
    ~name:"span trees export as balanced, nested Chrome trace JSON"
    (QCheck.pair tree_arb tree_arb)
    (fun (t1, t2) ->
      Obs.Trace.clear ();
      Obs.Trace.set_enabled true;
      Fun.protect
        ~finally:(fun () -> Obs.Trace.set_enabled false)
        (fun () ->
          walk t1;
          (* a second domain exercises the per-domain ring buffers: the
             invariant must hold independently per tid *)
          Domain.join (Domain.spawn (fun () -> walk t2));
          let rendered = Json.to_string ~indent:false (Obs.Trace.to_json ()) in
          match Json.of_string rendered with
          | Error msg -> QCheck.Test.fail_reportf "trace does not parse: %s" msg
          | Ok doc -> check_balanced (events_of_doc doc)))

let test_unclosed_span_repair () =
  Obs.Trace.clear ();
  Obs.Trace.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Obs.Trace.set_enabled false)
    (fun () ->
      let outer = Obs.Trace.start "outer" in
      let inner = Obs.Trace.start "inner" in
      ignore outer;
      ignore inner;
      (* neither span is finished: export must close both synthetically *)
      let doc = Obs.Trace.to_json () in
      Alcotest.(check bool) "repaired stream balanced" true
        (check_balanced (events_of_doc doc));
      let es =
        List.filter (fun ev -> str_field "ph" ev = Some "E")
          (events_of_doc doc)
      in
      Alcotest.(check int) "two synthetic closes" 2 (List.length es))

let test_orphan_close_dropped () =
  Obs.Trace.clear ();
  Obs.Trace.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Obs.Trace.set_enabled false)
    (fun () ->
      let sp = Obs.Trace.start "torn" in
      (* the B is lost (buffer cleared mid-flight); the E is now an
         orphan and must not survive export *)
      Obs.Trace.clear ();
      Obs.Trace.finish sp;
      let evs = events_of_doc (Obs.Trace.to_json ()) in
      let be =
        List.filter
          (fun ev ->
            match str_field "ph" ev with Some ("B" | "E") -> true | _ -> false)
          evs
      in
      Alcotest.(check int) "orphan E dropped" 0 (List.length be))

let test_complete_and_instant () =
  Obs.Trace.clear ();
  Obs.Trace.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Obs.Trace.set_enabled false)
    (fun () ->
      let t = Obs.Trace.timestamp () in
      Obs.Trace.instant "marker";
      Obs.Trace.complete "interval" ~since:t;
      let evs = events_of_doc (Obs.Trace.to_json ()) in
      let phs = List.filter_map (str_field "ph") evs in
      Alcotest.(check bool) "instant exported" true (List.mem "i" phs);
      Alcotest.(check bool) "complete exported" true (List.mem "X" phs);
      let x =
        List.find (fun ev -> str_field "ph" ev = Some "X") evs
      in
      match num_field "dur" x with
      | Some d -> Alcotest.(check bool) "X carries a duration" true (d >= 0.)
      | None -> Alcotest.fail "X event has no dur field")

let test_disabled_probes_record_nothing () =
  Obs.Trace.clear ();
  Obs.Trace.set_enabled false;
  let sp = Obs.Trace.start "invisible" in
  Obs.Trace.finish sp;
  Obs.Trace.instant "invisible";
  Obs.Trace.with_span "invisible" (fun () -> ());
  let evs = events_of_doc (Obs.Trace.to_json ()) in
  let named =
    List.filter (fun ev -> str_field "name" ev = Some "invisible") evs
  in
  Alcotest.(check int) "no events while disabled" 0 (List.length named)

let test_trace_sampling () =
  Obs.Trace.clear ();
  Obs.Trace.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Obs.Trace.set_sample_every 1;
      Obs.Trace.set_enabled false;
      Obs.Trace.clear ())
    (fun () ->
      Obs.Trace.set_sample_every 0;
      Alcotest.(check int) "0 clamps to 1" 1 (Obs.Trace.sample_every ());
      Obs.Trace.set_sample_every 4;
      Alcotest.(check int) "getter" 4 (Obs.Trace.sample_every ());
      let drops0 =
        match Obs.Metrics.find_counter "trace.sampled_drops" with
        | Some c -> Obs.Metrics.value c
        | None -> 0
      in
      (* 8 consecutive ticks at 1-of-4 keep exactly 2 spans whatever
         the phase of the process-wide tick *)
      for _ = 1 to 8 do
        let sp = Obs.Trace.start "sampled" in
        Obs.Trace.finish sp
      done;
      let evs = events_of_doc (Obs.Trace.to_json ()) in
      let bs = List.filter (fun ev -> str_field "ph" ev = Some "B") evs in
      Alcotest.(check int) "kept 2 of 8" 2 (List.length bs);
      Alcotest.(check bool) "sampled stream still balanced" true
        (check_balanced evs);
      let drops1 =
        match Obs.Metrics.find_counter "trace.sampled_drops" with
        | Some c -> Obs.Metrics.value c
        | None -> 0
      in
      Alcotest.(check int) "drops counted" 6 (drops1 - drops0))

let test_overflow_drops_and_counts () =
  Obs.Trace.clear ();
  Obs.Trace.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Obs.Trace.set_enabled false;
      Obs.Trace.clear ())
    (fun () ->
      let capacity = 1 lsl 16 in
      let extra = 1000 in
      for _ = 1 to capacity + extra do
        Obs.Trace.instant "flood"
      done;
      Alcotest.(check bool) "overflow counted" true
        (Obs.Trace.dropped () >= extra))

(* ---------------- export: failures degrade to diagnostics ---------- *)

let test_write_failure_is_diag () =
  let boom _path _contents = raise (Sys_error "No space left on device") in
  (match Obs.write_trace ~writer:boom "/tmp/obs_test_trace.json" with
  | Ok () -> Alcotest.fail "failing writer reported success"
  | Error d ->
    let s = Diag.to_string d in
    Alcotest.(check bool) "diag names the file" true
      (let re = "obs_test_trace.json" in
       let len = String.length re in
       let n = String.length s in
       let rec scan i = i + len <= n && (String.sub s i len = re || scan (i + 1)) in
       scan 0));
  match Obs.write_metrics ~writer:boom "/tmp/obs_test_metrics.json" with
  | Ok () -> Alcotest.fail "failing metrics writer reported success"
  | Error _ -> ()

let test_write_trace_to_file () =
  let path = Filename.temp_file "obs_test" ".trace.json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Obs.Trace.clear ();
      Obs.Trace.set_enabled true;
      Fun.protect
        ~finally:(fun () -> Obs.Trace.set_enabled false)
        (fun () -> Obs.Trace.with_span "root" (fun () -> ()));
      (match Obs.write_trace path with
      | Error d -> Alcotest.failf "write failed: %s" (Diag.to_string d)
      | Ok () -> ());
      let ic = open_in path in
      let n = in_channel_length ic in
      let contents = really_input_string ic n in
      close_in ic;
      match Json.of_string (String.trim contents) with
      | Error msg -> Alcotest.failf "written trace does not parse: %s" msg
      | Ok doc ->
        let names = List.filter_map (str_field "name") (events_of_doc doc) in
        Alcotest.(check bool) "root span present" true (List.mem "root" names))

let test_flush_reports_failures () =
  let saved_t = Obs.trace_file () and saved_m = Obs.metrics_file () in
  Fun.protect
    ~finally:(fun () ->
      Obs.set_trace_file saved_t;
      Obs.set_metrics_file saved_m;
      Obs.Trace.set_enabled false)
    (fun () ->
      Obs.set_trace_file (Some "t.json");
      Obs.set_metrics_file (Some "m.json");
      let boom _ _ = raise (Sys_error "Permission denied") in
      let diags = Obs.flush ~writer:boom () in
      Alcotest.(check int) "both failed writes reported" 2 (List.length diags);
      Obs.set_trace_file None;
      Obs.set_metrics_file None;
      Alcotest.(check int) "nothing configured, nothing to flush" 0
        (List.length (Obs.flush ~writer:boom ())))

let test_install_from_env () =
  let tmp = Filename.temp_file "obs_env" ".json" in
  let saved_t = Obs.trace_file () and saved_m = Obs.metrics_file () in
  Fun.protect
    ~finally:(fun () ->
      Obs.set_trace_file saved_t;
      Obs.set_metrics_file saved_m;
      Obs.Trace.set_enabled false;
      Obs.Trace.set_sample_every 1;
      Unix.putenv "SERTOOL_TRACE" "";
      Unix.putenv "SERTOOL_METRICS" "";
      Unix.putenv "SERTOOL_TRACE_SAMPLE" "";
      try Sys.remove tmp with Sys_error _ -> ())
    (fun () ->
      Unix.putenv "SERTOOL_TRACE" tmp;
      Unix.putenv "SERTOOL_METRICS" "";
      Unix.putenv "SERTOOL_TRACE_SAMPLE" "3";
      Obs.install_from_env ();
      Alcotest.(check bool) "trace file adopted from env" true
        (Obs.trace_file () = Some tmp);
      Alcotest.(check bool) "tracing enabled by env" true (Obs.Trace.enabled ());
      Alcotest.(check int) "sampling adopted from env" 3
        (Obs.Trace.sample_every ());
      Alcotest.(check bool) "blank env var ignored" true
        (Obs.metrics_file () = saved_m))

(* ---------------- totality of the trace-document readers ---------- *)

let trace_doc =
  let ev ph name ts extra =
    Json.Obj
      ([
         ("name", Json.Str name);
         ("ph", Json.Str ph);
         ("ts", Json.int ts);
         ("pid", Json.int 1);
         ("tid", Json.int 0);
       ]
      @ extra)
  in
  Json.Obj
    [
      ( "traceEvents",
        Json.List
          [
            ev "M" "thread_name" 0 [ ("args", Json.Obj [ ("name", Json.Str "d0") ]) ];
            ev "B" "outer" 0 [];
            ev "B" "inner" 2 [];
            ev "E" "inner" 5 [];
            ev "E" "outer" 9 [];
            ev "X" "flat" 10 [ ("dur", Json.int 3) ];
          ] );
      ("displayTimeUnit", Json.Str "ms");
      ("otherData", Json.Obj [ ("tool", Json.Str "sertool"); ("dropped", Json.int 0) ]);
    ]

let tabulate_total_prop =
  Json_gen.total_prop ~name:"tabulate is total" ~valid:[ trace_doc ] (fun j ->
      Ok (Obs.Trace.tabulate j))

let merge_total_prop =
  Json_gen.total_prop ~name:"merge_documents is total" ~valid:[ trace_doc ]
    (fun j ->
      Ok (Obs.Trace.tabulate (Obs.Trace.merge_documents [ (0, trace_doc); (1, j) ])))

let () =
  Alcotest.run "obs"
    [
      ( "metrics",
        [
          Alcotest.test_case "counter math" `Quick test_counter_math;
          Alcotest.test_case "gauge math" `Quick test_gauge_math;
          Alcotest.test_case "histogram buckets" `Quick test_histogram_buckets;
          Alcotest.test_case "snapshot roundtrip" `Quick
            test_snapshot_roundtrip;
          Alcotest.test_case "reset by prefix" `Quick test_reset_prefix;
        ] );
      ( "trace",
        [
          QCheck_alcotest.to_alcotest span_tree_roundtrip_prop;
          Alcotest.test_case "unclosed span repair" `Quick
            test_unclosed_span_repair;
          Alcotest.test_case "orphan close dropped" `Quick
            test_orphan_close_dropped;
          Alcotest.test_case "complete and instant" `Quick
            test_complete_and_instant;
          Alcotest.test_case "disabled probes" `Quick
            test_disabled_probes_record_nothing;
          Alcotest.test_case "span sampling" `Quick test_trace_sampling;
          Alcotest.test_case "overflow counted" `Quick
            test_overflow_drops_and_counts;
          QCheck_alcotest.to_alcotest tabulate_total_prop;
          QCheck_alcotest.to_alcotest merge_total_prop;
        ] );
      ( "export",
        [
          Alcotest.test_case "write failure is a diag" `Quick
            test_write_failure_is_diag;
          Alcotest.test_case "trace lands on disk" `Quick
            test_write_trace_to_file;
          Alcotest.test_case "flush reports failures" `Quick
            test_flush_reports_failures;
          Alcotest.test_case "env install" `Quick test_install_from_env;
        ] );
    ]
