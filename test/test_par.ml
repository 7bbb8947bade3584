module Par = Ser_par.Par
module Rng = Ser_rng.Rng
module Budget = Ser_util.Budget
module Diag = Ser_util.Diag

let bits = Int64.bits_of_float

(* ---------------- determinism across worker counts ---------------- *)

(* a float reduction with per-index RNG streams: the canonical shape of
   the Monte-Carlo consumers; must be bit-identical for any -j *)
let reduce_with jobs =
  Par.set_jobs jobs;
  let base = Rng.create 99 in
  Par.parallel_reduce ~n:1000 ~init:0.
    ~map:(fun ~lo ~hi ->
      let acc = ref 0. in
      for i = lo to hi - 1 do
        let r = Rng.stream base i in
        acc := !acc +. Rng.uniform r +. Rng.gaussian r
      done;
      !acc)
    ~combine:( +. ) ()

let test_reduce_determinism () =
  let r1 = reduce_with 1 in
  let r2 = reduce_with 2 in
  let r4 = reduce_with 4 in
  Alcotest.(check int64) "jobs 1 = jobs 2" (bits r1) (bits r2);
  Alcotest.(check int64) "jobs 1 = jobs 4" (bits r1) (bits r4);
  Alcotest.(check bool) "result is finite" true (Float.is_finite r1)

let test_map_order () =
  Par.set_jobs 4;
  let input = Array.init 500 (fun i -> i) in
  let out = Par.parallel_map (fun x -> (x * 7) + 1) input in
  Array.iteri
    (fun i v -> if v <> (i * 7) + 1 then Alcotest.fail "map out of order")
    out;
  let outi = Par.parallel_mapi (fun i x -> i + x) input in
  Array.iteri
    (fun i v -> if v <> 2 * i then Alcotest.fail "mapi index wrong")
    outi

let analysis_with name jobs =
  Par.set_jobs jobs;
  let c = Ser_circuits.Iscas.load name in
  let lib = Ser_cell.Library.create () in
  let asg = Ser_sta.Assignment.uniform lib c in
  let config =
    { Aserta.Analysis.default_config with Aserta.Analysis.vectors = 400 }
  in
  Aserta.Analysis.run ~config lib asg

(* c17 at three widths, plus c432 so that the masking and per-level
   passes split into many chunks *)
let test_analysis_determinism () =
  List.iter
    (fun (name, widths) ->
      let a1 = analysis_with name 1 in
      List.iter
        (fun jobs ->
          let a = analysis_with name jobs in
          Alcotest.(check int64)
            (Printf.sprintf "%s total: jobs 1 = jobs %d" name jobs)
            (bits a1.Aserta.Analysis.total)
            (bits a.Aserta.Analysis.total);
          Array.iteri
            (fun id u ->
              if bits u <> bits a.Aserta.Analysis.unreliability.(id) then
                Alcotest.failf
                  "%s: per-gate unreliability differs between jobs 1 and %d"
                  name jobs)
            a1.Aserta.Analysis.unreliability)
        widths)
    [ ("c17", [ 2; 4 ]); ("c432", [ 2 ]) ]

(* ---------------- exception propagation ---------------- *)

let test_exception_becomes_diag () =
  Par.set_jobs 2;
  (try
     Par.parallel_for ~n:64 ~chunk:1 (fun i ->
         if i = 37 then failwith "boom");
     Alcotest.fail "expected a Diag_error"
   with Diag.Diag_error d ->
     Alcotest.(check string) "wrapped in par subsystem" "par"
       d.Diag.subsystem;
     Alcotest.(check (option string)) "chunk located" (Some "37")
       (List.assoc_opt "par_chunk" d.Diag.context));
  (* the pool drained cleanly and stays usable *)
  let r = Par.parallel_map (fun x -> x * 2) (Array.init 100 Fun.id) in
  Alcotest.(check int) "pool usable after failure" 198 r.(99)

let test_diag_error_keeps_subsystem () =
  Par.set_jobs 2;
  try
    Par.parallel_for ~n:8 ~chunk:1 (fun i ->
        if i = 3 then Diag.fail ~subsystem:"aserta" "inner failure");
    Alcotest.fail "expected a Diag_error"
  with Diag.Diag_error d ->
    Alcotest.(check string) "original subsystem preserved" "aserta"
      d.Diag.subsystem;
    Alcotest.(check (option string)) "chunk context added" (Some "3")
      (List.assoc_opt "par_chunk" d.Diag.context)

(* ---------------- budgets ---------------- *)

let test_budget_degrades () =
  Par.set_jobs 2;
  let b = Budget.create ~max_evals:5 () in
  let out = Array.make 64 None in
  Par.parallel_chunks ~budget:b ~chunk:1 ~n:64 (fun ~slot:_ ~lo ~hi ->
      for i = lo to hi - 1 do
        Budget.tick b;
        out.(i) <- Some (i + 1)
      done);
  Alcotest.(check bool) "budget latched" true (Budget.was_exhausted b);
  let completed =
    Array.fold_left
      (fun acc -> function Some _ -> acc + 1 | None -> acc)
      0 out
  in
  Alcotest.(check bool) "ran until expiry, then stopped" true
    (completed >= 5 && completed < 64);
  (* every completed element carries the value the unbudgeted run
     would have produced *)
  Array.iteri
    (fun i -> function
      | Some v -> Alcotest.(check int) "value intact" (i + 1) v
      | None -> ())
    out

let test_budget_reduce_partial () =
  Par.set_jobs 2;
  let b = Budget.create ~max_evals:3 () in
  let count =
    Par.parallel_reduce ~budget:b ~chunk:1 ~n:64 ~init:0
      ~map:(fun ~lo ~hi ->
        Budget.tick b;
        hi - lo)
      ~combine:( + ) ()
  in
  Alcotest.(check bool) "partial coverage" true (count >= 3 && count < 64);
  Alcotest.(check bool) "latched" true (Budget.was_exhausted b)

(* ---------------- nesting and lifecycle ---------------- *)

let test_nested_no_deadlock () =
  Par.set_jobs 4;
  let out =
    Par.parallel_map
      (fun i ->
        let inner =
          Par.parallel_map (fun j -> (i * 100) + j) (Array.init 10 Fun.id)
        in
        Array.fold_left ( + ) 0 inner)
      (Array.init 8 Fun.id)
  in
  Array.iteri
    (fun i v ->
      Alcotest.(check int) "nested sum" ((i * 1000) + 45) v)
    out

let test_shutdown_respawn () =
  Par.set_jobs 2;
  ignore (Par.parallel_map (fun x -> x) (Array.init 10 Fun.id));
  Par.shutdown ();
  Par.shutdown ();
  let r = Par.parallel_map (fun x -> x + 1) (Array.init 10 Fun.id) in
  Alcotest.(check int) "pool respawns after shutdown" 10 r.(9)

let test_invalid_args () =
  Alcotest.check_raises "negative jobs"
    (Invalid_argument "Par.set_jobs: negative worker count") (fun () ->
      Par.set_jobs (-1));
  Par.set_jobs 2;
  Alcotest.check_raises "negative n"
    (Invalid_argument "Par.parallel_chunks: negative n") (fun () ->
      Par.parallel_for ~n:(-1) (fun _ -> ()));
  Alcotest.check_raises "zero chunk"
    (Invalid_argument "Par.parallel_chunks: chunk <= 0") (fun () ->
      Par.parallel_for ~chunk:0 ~n:4 (fun _ -> ()))

(* ---------------- instrumentation ---------------- *)

let test_stats () =
  let module M = Ser_obs.Obs.Metrics in
  let count name =
    match M.find_counter name with
    | Some c -> M.value c
    | None -> Alcotest.failf "counter %s not registered" name
  in
  Par.set_jobs 2;
  M.reset ~prefix:"par." ();
  ignore (Par.parallel_map (fun x -> x) (Array.init 100 Fun.id));
  Alcotest.(check int) "jobs reported" 2 (Par.jobs ());
  Alcotest.(check bool) "a section ran" true
    (count "par.sections" + count "par.sequential_sections" >= 1);
  Alcotest.(check bool) "chunks counted" true (count "par.chunks" >= 1);
  Alcotest.(check bool) "caller busy gauge registered" true
    (M.find_gauge "par.busy_s.slot0" <> None);
  Par.set_jobs 1;
  M.reset ~prefix:"par." ();
  ignore (Par.parallel_map (fun x -> x) (Array.init 10 Fun.id));
  Alcotest.(check int) "jobs=1 never uses the pool" 0 (count "par.sections");
  Alcotest.(check bool) "inline section recorded" true
    (count "par.sequential_sections" >= 1)

let () =
  Alcotest.run "ser_par"
    [
      ( "determinism",
        [
          Alcotest.test_case "ordered reduce" `Quick test_reduce_determinism;
          Alcotest.test_case "map order" `Quick test_map_order;
          Alcotest.test_case "aserta bit-identical" `Quick
            test_analysis_determinism;
        ] );
      ( "failures",
        [
          Alcotest.test_case "exception to diag" `Quick
            test_exception_becomes_diag;
          Alcotest.test_case "diag subsystem kept" `Quick
            test_diag_error_keeps_subsystem;
          Alcotest.test_case "invalid arguments" `Quick test_invalid_args;
        ] );
      ( "budgets",
        [
          Alcotest.test_case "budgeted map degrades" `Quick
            test_budget_degrades;
          Alcotest.test_case "budgeted reduce partial" `Quick
            test_budget_reduce_partial;
        ] );
      ( "lifecycle",
        [
          Alcotest.test_case "nested no deadlock" `Quick
            test_nested_no_deadlock;
          Alcotest.test_case "shutdown and respawn" `Quick
            test_shutdown_respawn;
          Alcotest.test_case "stats" `Quick test_stats;
        ] );
    ]
