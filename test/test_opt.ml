module Min = Ser_opt.Minimize

let quadratic x =
  ((x.(0) -. 1.) ** 2.) +. (2. *. ((x.(1) +. 3.) ** 2.)) +. 0.5

(* coordinate descent: a direction search along the unit axes *)
let coordinate_descent ~f ~x0 =
  let n = Array.length x0 in
  let unit i = Array.init n (fun j -> if i = j then 1. else 0.) in
  Min.direction_search ~f ~x0 ~directions:(Array.init n unit)

let test_coordinate_descent () =
  let r = coordinate_descent ~f:quadratic ~x0:[| 0.; 0. |] () in
  Alcotest.(check (float 1e-2)) "x0" 1. r.Min.x.(0);
  Alcotest.(check (float 1e-2)) "x1" (-3.) r.Min.x.(1);
  Alcotest.(check bool) "trace improves" true
    (match r.Min.trace with
    | first :: _ -> r.Min.fx <= first
    | [] -> false)

let test_coordinate_descent_budget () =
  let count = ref 0 in
  let f x =
    incr count;
    quadratic x
  in
  let r = coordinate_descent ~f ~x0:[| 10.; 10. |] ~max_evals:25 () in
  Alcotest.(check bool) "budget respected" true (!count <= 25);
  Alcotest.(check int) "evals reported" !count r.Min.evals

let test_direction_search_span () =
  (* only one direction: the search cannot move along the other axis *)
  let r =
    Min.direction_search ~f:quadratic ~x0:[| 0.; 0. |]
      ~directions:[| [| 1.; 0. |] |] ()
  in
  Alcotest.(check (float 1e-2)) "moves along e0" 1. r.Min.x.(0);
  Alcotest.(check (float 0.)) "frozen along e1" 0. r.Min.x.(1)

let test_direction_search_empty () =
  let r = Min.direction_search ~f:quadratic ~x0:[| 5.; 5. |] ~directions:[||] () in
  Alcotest.(check (float 0.)) "no directions no motion" 5. r.Min.x.(0)

let test_direction_search_diagonal () =
  (* a diagonal direction reaches points coordinate descent cannot *)
  let f x = ((x.(0) -. x.(1)) ** 2.) +. ((x.(0) +. x.(1) -. 4.) ** 2.) in
  let r =
    Min.direction_search ~f ~x0:[| 0.; 0. |]
      ~directions:[| [| 1.; 1. |]; [| 1.; -1. |] |] ()
  in
  Alcotest.(check (float 1e-2)) "x0" 2. r.Min.x.(0);
  Alcotest.(check (float 1e-2)) "x1" 2. r.Min.x.(1)

(* ---------------- budgets ---------------- *)

let test_budget_cuts_search () =
  let b = Ser_util.Budget.create ~max_evals:5 () in
  let r = coordinate_descent ~f:quadratic ~x0:[| 10.; 10. |] ~budget:b () in
  Alcotest.(check bool) "degraded" true r.Min.degraded;
  Alcotest.(check bool) "evals bounded" true (r.Min.evals <= 5);
  Alcotest.(check bool) "best-so-far not worse than start" true
    (r.Min.fx <= quadratic [| 10.; 10. |])

let test_budget_single_eval () =
  (* the degenerate budget: one evaluation must still yield a result *)
  let b = Ser_util.Budget.create ~max_evals:1 () in
  let r = coordinate_descent ~f:quadratic ~x0:[| 3.; 4. |] ~budget:b () in
  Alcotest.(check int) "one eval" 1 r.Min.evals;
  Alcotest.(check bool) "degraded" true r.Min.degraded;
  Alcotest.(check (float 0.)) "returns the start point" 3. r.Min.x.(0)

let test_budget_not_degraded_when_ample () =
  let b = Ser_util.Budget.create ~max_evals:100_000 () in
  let r = coordinate_descent ~f:quadratic ~x0:[| 0.; 0. |] ~budget:b () in
  Alcotest.(check bool) "not degraded" false r.Min.degraded;
  Alcotest.(check (float 1e-2)) "still converges" 1. r.Min.x.(0)

let test_budget_deadline () =
  (* an already-expired wall clock stops the search after the first
     evaluation *)
  let b = Ser_util.Budget.create ~max_seconds:0. () in
  let r = coordinate_descent ~f:quadratic ~x0:[| 3.; 4. |] ~budget:b () in
  Alcotest.(check bool) "degraded" true r.Min.degraded;
  Alcotest.(check int) "only the start evaluated" 1 r.Min.evals

let () =
  Alcotest.run "ser_opt"
    [
      ( "pattern search",
        [
          Alcotest.test_case "coordinate descent" `Quick test_coordinate_descent;
          Alcotest.test_case "eval budget" `Quick test_coordinate_descent_budget;
          Alcotest.test_case "direction span" `Quick test_direction_search_span;
          Alcotest.test_case "no directions" `Quick test_direction_search_empty;
          Alcotest.test_case "diagonal directions" `Quick test_direction_search_diagonal;
        ] );
      ( "budgets",
        [
          Alcotest.test_case "cuts search" `Quick test_budget_cuts_search;
          Alcotest.test_case "single eval" `Quick test_budget_single_eval;
          Alcotest.test_case "ample budget" `Quick test_budget_not_degraded_when_ample;
          Alcotest.test_case "expired deadline" `Quick test_budget_deadline;
        ] );
    ]
