(* lib/serve: the framing codec is total, cache keys are
   content-addressed and order-invariant, the recency table agrees with
   a list model, the cache and its persistence behave, the
   request/response codecs round-trip, a live forked daemon serves,
   caches and replays, and a kept-alive client survives a daemon
   restart. *)

module Frame = Ser_serve.Frame
module Wire = Ser_serve.Wire
module Cache = Ser_serve.Cache
module Lru = Ser_serve.Lru
module Server = Ser_serve.Server
module Client = Ser_serve.Client
module Request = Ser_cli.Request
module Json = Ser_util.Json
module Diag = Ser_util.Diag
module Bench = Ser_netlist.Bench_format

(* ---------------------- qcheck: framing codec ---------------------- *)

let frame_roundtrip_prop =
  QCheck.Test.make ~count:200 ~name:"frame round-trips arbitrary payloads"
    QCheck.string
    (fun s ->
      match Frame.decode (Frame.encode_raw s) with
      | Frame.Complete { payload; consumed } ->
        payload = s && consumed = Frame.header_bytes + String.length s
      | _ -> false)

let frame_json_roundtrip_prop =
  QCheck.Test.make ~count:200 ~name:"frame round-trips JSON documents"
    QCheck.(list (pair printable_string small_int))
    (fun kvs ->
      let doc =
        Json.Obj
          (List.mapi
             (fun i (k, v) -> (Printf.sprintf "k%d_%s" i k, Json.int v))
             kvs)
      in
      match Frame.decode (Frame.encode doc) with
      | Frame.Complete { payload; _ } -> Json.of_string payload = Ok doc
      | _ -> false)

let frame_truncation_prop =
  QCheck.Test.make ~count:100
    ~name:"every strict frame prefix decodes Incomplete" QCheck.string
    (fun s ->
      let f = Frame.encode_raw s in
      let ok = ref true in
      for cut = 0 to String.length f - 1 do
        match Frame.decode (String.sub f 0 cut) with
        | Frame.Incomplete -> ()
        | _ -> ok := false
      done;
      !ok)

let frame_oversized_prop =
  QCheck.Test.make ~count:100
    ~name:"oversized frame yields typed Bad_length"
    QCheck.(string_of_size Gen.(int_range 1 200))
    (fun s ->
      match Frame.decode ~max:(String.length s - 1) (Frame.encode_raw s) with
      | Frame.Invalid (Frame.Bad_length { len; max }) ->
        len = String.length s && max = String.length s - 1
      | _ -> false)

let frame_garbage_prop =
  QCheck.Test.make ~count:200 ~name:"decode is total on arbitrary bytes"
    QCheck.string
    (fun s ->
      (* never an exception, and a negative announced length is typed *)
      (match Frame.decode s with
      | Frame.Complete _ | Frame.Incomplete | Frame.Invalid _ -> ());
      match Frame.decode ("\xff\xff\xff\xff" ^ s) with
      | Frame.Invalid (Frame.Bad_length { len; _ }) -> len < 0
      | _ -> false)

(* ------------------ qcheck: cache-key invariance ------------------- *)

let c17_text = lazy (Bench.to_string (Ser_circuits.Iscas.load "c17"))

let shuffle_lines seed text =
  let lines =
    List.filter (fun l -> String.trim l <> "")
      (String.split_on_char '\n' text)
  in
  let a = Array.of_list lines in
  let st = Random.State.make [| seed |] in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  String.concat "\n" (Array.to_list a) ^ "\n"

let cache_key_order_prop =
  QCheck.Test.make ~count:50
    ~name:"cache key invariant under netlist declaration order"
    QCheck.small_int
    (fun seed ->
      let text = Lazy.force c17_text in
      match
        (Bench.parse_string text, Bench.parse_string (shuffle_lines seed text))
      with
      | Ok c1, Ok c2 ->
        Ser_netlist.Circuit.digest c1 = Ser_netlist.Circuit.digest c2
      | _ -> QCheck.Test.fail_report "shuffled c17 no longer parses")

(* ---------------------- qcheck: recency table ---------------------- *)

(* The reference: an association list, least recently used first, and
   the number of entries dropped off its head. *)
let model_touch entries k v = List.remove_assoc k entries @ [ (k, v) ]

let lru_model_prop =
  QCheck.Test.make ~count:500 ~name:"lru agrees with a list model"
    QCheck.(
      pair (int_range 1 4) (list (triple bool (int_range 0 5) small_int)))
    (fun (bound, ops) ->
      let t = Lru.create bound in
      let step (entries, evicted) (is_add, k, v) =
        let k = Printf.sprintf "k%d" k in
        let entries, evicted =
          if is_add then begin
            Lru.add t k v;
            let entries = model_touch entries k v in
            if List.length entries > bound then (List.tl entries, evicted + 1)
            else (entries, evicted)
          end
          else
            let expected = List.assoc_opt k entries in
            let got = Lru.find t k in
            if got <> expected then
              QCheck.Test.fail_reportf "find %s: %s, model %s" k
                (Option.fold ~none:"none" ~some:string_of_int got)
                (Option.fold ~none:"none" ~some:string_of_int expected);
            match expected with
            | Some v -> (model_touch entries k v, evicted)
            | None -> (entries, evicted)
        in
        if Lru.to_list t <> entries then
          QCheck.Test.fail_reportf "order/membership differ after %s %s"
            (if is_add then "add" else "find") k;
        if Lru.evictions t <> evicted || Lru.length t <> List.length entries
        then
          QCheck.Test.fail_reportf "evictions %d (model %d), length %d (model %d)"
            (Lru.evictions t) evicted (Lru.length t) (List.length entries);
        (entries, evicted)
      in
      ignore (List.fold_left step ([], 0) ops);
      true)

(* ------------------------ cache directed --------------------------- *)

let tmpdir () =
  let d = Filename.temp_file "test-serve" "" in
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

let v n = Json.Obj [ ("v", Json.int n) ]

let test_cache_lru () =
  let c, diags = Cache.create ~max_entries:2 () in
  Alcotest.(check int) "no load diags" 0 (List.length diags);
  Cache.add c "k1" (v 1);
  Cache.add c "k2" (v 2);
  ignore (Cache.find c "k1");
  (* k1 refreshed: the eviction victim must now be k2 *)
  Cache.add c "k3" (v 3);
  Alcotest.(check bool) "k1 survives" true (Cache.find c "k1" = Some (v 1));
  Alcotest.(check bool) "k2 evicted" true (Cache.find c "k2" = None);
  Alcotest.(check bool) "k3 present" true (Cache.find c "k3" = Some (v 3));
  let s = Cache.stats c in
  Alcotest.(check int) "one eviction" 1 s.Cache.evictions

let test_cache_persistence () =
  let dir = tmpdir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let c, _ = Cache.create ~dir () in
      Cache.add c "alpha" (v 1);
      Cache.add c "beta" (v 2);
      Alcotest.(check int) "flush clean" 0 (List.length (Cache.flush c));
      Alcotest.(check bool) "cache.json written" true
        (Sys.file_exists (Filename.concat dir "cache.json"));
      (* the atomic writer must not leave its temp file behind *)
      Alcotest.(check bool) "no temp residue" true
        (Array.for_all
           (fun f -> not (Filename.check_suffix f ".tmp"))
           (Sys.readdir dir));
      let c2, diags = Cache.create ~dir () in
      Alcotest.(check int) "reload clean" 0 (List.length diags);
      Alcotest.(check bool) "alpha reloaded" true
        (Cache.find c2 "alpha" = Some (v 1));
      Alcotest.(check bool) "beta reloaded" true
        (Cache.find c2 "beta" = Some (v 2)))

let test_cache_corrupt_file () =
  let dir = tmpdir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let oc = open_out (Filename.concat dir "cache.json") in
      output_string oc "]( definitely not a cache )[";
      close_out oc;
      let c, diags = Cache.create ~dir () in
      Alcotest.(check bool) "corruption diagnosed" true (diags <> []);
      Alcotest.(check int) "starts empty" 0 (Cache.stats c).Cache.entries)

let test_cache_enospc () =
  let dir = tmpdir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let writer path _ = raise (Unix.Unix_error (Unix.ENOSPC, "write", path)) in
      let c, _ = Cache.create ~dir ~writer () in
      Cache.add c "k" (v 9);
      let diags = Cache.flush c in
      Alcotest.(check bool) "failure diagnosed" true (diags <> []);
      Alcotest.(check bool) "failure counted" true
        ((Cache.stats c).Cache.persist_errors >= 1);
      (* memory serving is unaffected *)
      Alcotest.(check bool) "entry still served" true
        (Cache.find c "k" = Some (v 9)))

(* --------------------- request / wire codecs ----------------------- *)

let test_request_roundtrip () =
  let with_fault f r =
    match Request.fault_of_string f with
    | Ok f -> { r with Request.fault = Some f }
    | Error msg -> Alcotest.failf "fault %S rejected: %s" f msg
  in
  let analyze = Request.defaults Request.Analyze (Request.Spec "c17") in
  let reqs =
    [
      {
        analyze with
        Request.id = Some "a";
        vectors = 123;
        charge = 8.5;
        top = 3;
        vdds = [ 0.9; 1.0 ];
        deadline_s = Some 2.5;
        isolate = Some true;
      };
      with_fault "sleep:10"
        {
          (Request.defaults Request.Optimize
             (Request.Inline_bench "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n"))
          with
          Request.evals = 17;
          greedy = 1;
          budget_evals = Some 9;
        };
      {
        (Request.defaults Request.Rate (Request.Spec "c432")) with
        Request.clock = Some 250.;
        q_slope = 4.5;
      };
    ]
    (* every fault form keeps its JSON string byte-identical *)
    @ List.map
        (fun f -> with_fault f analyze)
        [ "sleep:50"; "sleep:0.25"; "exit:3"; "flaky:2"; "hang"; "oom" ]
  in
  List.iter
    (fun r ->
      match Request.of_json (Request.to_json r) with
      | Error d -> Alcotest.failf "round-trip rejected: %s" (Diag.to_string d)
      | Ok r' ->
        Alcotest.(check bool) "record preserved" true (r' = r);
        Alcotest.(check string) "canonical json stable"
          (Json.to_string (Request.to_json r))
          (Json.to_string (Request.to_json r'));
        Alcotest.(check string) "canonical params stable"
          (Json.to_string (Request.params_json r))
          (Json.to_string (Request.params_json r')))
    reqs

let test_request_rejects () =
  let cases =
    [
      ("no op", Json.Obj [ ("circuit", Json.Str "c17") ]);
      ( "unknown op",
        Json.Obj [ ("op", Json.Str "frob"); ("circuit", Json.Str "c17") ] );
      ("no circuit", Json.Obj [ ("op", Json.Str "analyze") ]);
      ( "bad vectors",
        Json.Obj
          [
            ("op", Json.Str "analyze");
            ("circuit", Json.Str "c17");
            ("vectors", Json.int (-5));
          ] );
    ]
    (* a malformed fault is a typed error, not a silent exit 1 /
       flaky:2 in the worker *)
    @ List.map
        (fun f ->
          ( "fault " ^ f,
            Json.Obj
              [
                ("op", Json.Str "analyze");
                ("circuit", Json.Str "c17");
                ("fault", Json.Str f);
              ] ))
        [ "exit:abc"; "flaky:x"; "exit:"; "sleep:-5"; "sleep:soon"; "frob" ]
  in
  List.iter
    (fun (name, j) ->
      match Request.of_json j with
      | Ok _ -> Alcotest.failf "%s: accepted" name
      | Error d ->
        Alcotest.(check string) (name ^ " subsystem") "cli" d.Diag.subsystem)
    cases

let test_wire_roundtrip () =
  let payload = v 42 in
  (match
     Wire.response_of_json
       (Wire.ok ~cache_hit:true ~id:(Some "r1") ~elapsed_s:0.25 payload)
   with
  | Ok r ->
    Alcotest.(check bool) "id" true (r.Wire.r_id = Some "r1");
    Alcotest.(check bool) "cache_hit" true r.Wire.r_cache_hit;
    Alcotest.(check bool) "payload" true (r.Wire.r_status = Wire.Ok_payload payload)
  | Error msg -> Alcotest.failf "ok envelope rejected: %s" msg);
  List.iter
    (fun reject ->
      let d = Diag.error ~subsystem:"serve" "synthetic" in
      match Wire.response_of_json (Wire.error ~id:None reject d) with
      | Ok { Wire.r_status = Wire.Rejected (k, _, _); _ } ->
        Alcotest.(check string) "reject kind preserved"
          (Wire.reject_to_string reject)
          (Wire.reject_to_string k)
      | Ok _ -> Alcotest.fail "error envelope decoded as success"
      | Error msg -> Alcotest.failf "error envelope rejected: %s" msg)
    [
      Wire.Bad_request; Wire.Overloaded; Wire.Deadline_exceeded;
      Wire.Worker_failed; Wire.Shutting_down; Wire.Internal;
    ];
  Alcotest.(check bool) "bad_request final" false
    (Wire.retryable Wire.Bad_request);
  Alcotest.(check bool) "deadline final" false
    (Wire.retryable Wire.Deadline_exceeded);
  Alcotest.(check bool) "overloaded retryable" true
    (Wire.retryable Wire.Overloaded)

(* ----------------------- end-to-end daemon ------------------------- *)

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

let client_opts =
  { Client.default_opts with Client.request_timeout_s = 60.; retries = 2 }

let analyze_json ?id () =
  Request.to_json
    {
      (Request.defaults Request.Analyze (Request.Spec "c17")) with
      Request.id;
      vectors = 200;
    }

let call_ok addr req =
  match Client.call ~opts:client_opts addr req with
  | Error d -> Alcotest.failf "call failed: %s" (Diag.to_string d)
  | Ok ({ Wire.r_status = Wire.Ok_payload _; _ } as r) -> r
  | Ok { Wire.r_status = Wire.Rejected (k, msg, _); _ } ->
    Alcotest.failf "rejected (%s): %s" (Wire.reject_to_string k) msg

let test_daemon_smoke () =
  let dir = tmpdir () in
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
      let pid = fork_server cfg in
      let finish () =
        (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
        try snd (Unix.waitpid [] pid) with Unix.Unix_error _ -> Unix.WEXITED 0
      in
      match
        Fun.protect
          ~finally:(fun () -> ignore (finish ()))
          (fun () ->
            Alcotest.(check bool) "daemon up" true
              (Client.wait_ready ~opts:client_opts addr);
            let r1 = call_ok addr (analyze_json ()) in
            Alcotest.(check bool) "first is computed" false r1.Wire.r_cache_hit;
            let r2 = call_ok addr (analyze_json ()) in
            Alcotest.(check bool) "repeat is a cache hit" true
              r2.Wire.r_cache_hit;
            Alcotest.(check bool) "identical payload" true
              (r1.Wire.r_status = r2.Wire.r_status);
            (* idempotent request ids replay without re-execution *)
            let r3 = call_ok addr (analyze_json ~id:"rq-1" ()) in
            Alcotest.(check bool) "fresh id executes" false r3.Wire.r_replayed;
            let r4 = call_ok addr (analyze_json ~id:"rq-1" ()) in
            Alcotest.(check bool) "repeated id replays" true r4.Wire.r_replayed;
            Alcotest.(check bool) "replay payload identical" true
              (r3.Wire.r_status = r4.Wire.r_status);
            (match Client.health ~opts:client_opts addr with
            | Error d -> Alcotest.failf "health: %s" (Diag.to_string d)
            | Ok h ->
              Alcotest.(check bool) "health reports ok" true
                (Json.member "status" h = Some (Json.Str "ok")));
            (* SIGTERM: the daemon drains and exits cleanly *)
            finish ())
      with
      | Unix.WEXITED 0 -> ()
      | st ->
        Alcotest.failf "daemon did not drain cleanly: %s"
          (match st with
          | Unix.WEXITED n -> Printf.sprintf "exit %d" n
          | Unix.WSIGNALED n -> Printf.sprintf "signal %d" n
          | Unix.WSTOPPED n -> Printf.sprintf "stopped %d" n))

(* A kept-alive connection: two exchanges on one conn, then the daemon
   is replaced by a new one on the same socket, and the next call on
   the same conn must re-dial and reach it. The new daemon's cache is
   memory-only, so its answer is computed, not a hit. *)
let test_conn_survives_restart () =
  let dir = tmpdir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let socket = Filename.concat dir "k.sock" in
      let addr = Server.Unix_sock socket in
      let cfg = { (Server.default ~socket) with Server.spool_dir = Some dir } in
      let stop pid =
        (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
        try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()
      in
      let conn = Client.conn ~opts:client_opts addr in
      let conn_ok what =
        match Client.conn_call conn (analyze_json ()) with
        | Ok ({ Wire.r_status = Wire.Ok_payload p; _ } as r) ->
          (r.Wire.r_cache_hit, p)
        | Ok { Wire.r_status = Wire.Rejected (k, msg, _); _ } ->
          Alcotest.failf "%s rejected (%s): %s" what
            (Wire.reject_to_string k) msg
        | Error d -> Alcotest.failf "%s failed: %s" what (Diag.to_string d)
      in
      let with_daemon f =
        let pid = fork_server cfg in
        Fun.protect
          ~finally:(fun () -> stop pid)
          (fun () ->
            Alcotest.(check bool) "daemon up" true
              (Client.wait_ready ~opts:client_opts addr);
            f ())
      in
      Fun.protect
        ~finally:(fun () -> Client.conn_close conn)
        (fun () ->
          let first =
            with_daemon (fun () ->
                let hit1, p1 = conn_ok "first call" in
                let hit2, p2 = conn_ok "second call" in
                Alcotest.(check (pair bool bool)) "computed, then a hit"
                  (false, true) (hit1, hit2);
                Alcotest.(check bool) "same payload" true (p1 = p2);
                p1)
          in
          with_daemon (fun () ->
              let hit3, p3 = conn_ok "call after the restart" in
              Alcotest.(check bool) "the new daemon computes" false hit3;
              Alcotest.(check bool) "same payload" true (p3 = first))))

(* The daemon executes every inline op but odc through Handlers on a
   pooled prepared value: a warm value answers with its memoized
   baseline and ASERTA analysis, odc runs on the request's own load.
   Each document must be the one a from-scratch Handlers.run renders
   for the same request, byte for byte. *)
let test_warm_pool_equals_run () =
  let dir = tmpdir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let socket = Filename.concat dir "w.sock" in
      let addr = Server.Unix_sock socket in
      let pid =
        fork_server { (Server.default ~socket) with Server.spool_dir = Some dir }
      in
      Fun.protect
        ~finally:(fun () ->
          (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        (fun () ->
          Alcotest.(check bool) "daemon up" true
            (Client.wait_ready ~opts:client_opts addr);
          let req op top =
            {
              (Request.defaults op (Request.Spec "c17")) with
              Request.vectors = 200;
              top;
            }
          in
          let cold = call_ok addr (Request.to_json (req Request.Analyze 3)) in
          Alcotest.(check bool) "first builds the entry" false cold.Wire.r_warm;
          (* another top misses the result cache but not the pool;
             every op but the backend-free odc runs on the pooled
             value *)
          List.iter
            (fun (what, pooled, req) ->
              let r = call_ok addr (Request.to_json req) in
              Alcotest.(check bool) (what ^ " warm flag") pooled r.Wire.r_warm;
              match (r.Wire.r_status, Ser_cli.Handlers.run req) with
              | Wire.Ok_payload p, Ok expected ->
                Alcotest.(check string) (what ^ " document")
                  (Json.to_string expected) (Json.to_string p)
              | _, Error d -> Alcotest.failf "run: %s" (Diag.to_string d)
              | Wire.Rejected _, _ -> Alcotest.fail "rejected")
            [
              ("analyze", true, req Request.Analyze 10);
              ("rate", true, req Request.Rate 10);
              ( "serpp analyze",
                true,
                { (req Request.Analyze 10) with Request.backend = "serpp" } );
              ("odc", false, req Request.Odc 10);
              ( "inline optimize",
                true,
                {
                  (req Request.Optimize 10) with
                  Request.evals = 4;
                  greedy = 0;
                  isolate = Some false;
                } );
            ]))

let response_of_json_total_prop =
  let valid =
    [
      Wire.ok ~id:None ~elapsed_s:0.25 (Json.Obj [ ("total", Json.Num 2.) ]);
      Wire.ok ~cache_hit:true ~warm:true ~replayed:true ~id:(Some "r1")
        ~elapsed_s:1. Json.Null;
      Wire.error ~id:(Some "r2") Wire.Overloaded
        (Diag.make ~subsystem:"serve" "queue full");
    ]
  in
  Json_gen.total_prop ~name:"response_of_json is total" ~valid
    Wire.response_of_json

let () =
  Alcotest.run "serve"
    [
      ( "frame",
        List.map QCheck_alcotest.to_alcotest
          [
            frame_roundtrip_prop; frame_json_roundtrip_prop;
            frame_truncation_prop; frame_oversized_prop; frame_garbage_prop;
          ] );
      ( "cache",
        [
          Alcotest.test_case "lru eviction" `Quick test_cache_lru;
          Alcotest.test_case "persistence round-trip" `Quick
            test_cache_persistence;
          Alcotest.test_case "corrupt file degrades" `Quick
            test_cache_corrupt_file;
          Alcotest.test_case "enospc contained" `Quick test_cache_enospc;
          QCheck_alcotest.to_alcotest cache_key_order_prop;
          QCheck_alcotest.to_alcotest lru_model_prop;
        ] );
      ( "codec",
        [
          Alcotest.test_case "request round-trip" `Quick test_request_roundtrip;
          Alcotest.test_case "request validation" `Quick test_request_rejects;
          Alcotest.test_case "wire envelopes" `Quick test_wire_roundtrip;
          QCheck_alcotest.to_alcotest response_of_json_total_prop;
        ] );
      ( "daemon",
        [
          Alcotest.test_case "end-to-end smoke" `Quick test_daemon_smoke;
          (* forks twice, so it runs before a case that starts the
             domain pool in this process *)
          Alcotest.test_case "kept-alive conn survives a restart" `Quick
            test_conn_survives_restart;
          Alcotest.test_case "warm pool equals a cold run" `Quick
            test_warm_pool_equals_run;
        ] );
    ]
