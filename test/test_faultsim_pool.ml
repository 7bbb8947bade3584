(* Regression for the fault-injection harness's shared fixtures (c17,
   its odc report) under the pool. They are built on first use, and
   racing that first use from pool domains used to raise Lazy.Undefined
   in the loser. The odc scenarios run here in a fresh process, so the
   first round really races the build; test_faultsim cannot host this,
   because its serve scenarios fork and OCaml 5 refuses to fork once a
   domain has been spawned. *)

module H = Ser_faultsim.Harness

let test_odc_group_pooled () =
  let odc =
    Array.of_list
      (List.filter (fun (s : H.scenario) -> s.H.group = "odc") (H.scenarios ()))
  in
  Alcotest.(check bool) "odc scenarios present" true (Array.length odc >= 2);
  Ser_par.Par.set_jobs 2;
  for round = 1 to 5 do
    Array.iteri
      (fun i outcome ->
        let s = odc.(i) in
        if not (H.satisfies s.H.expect outcome) then
          Alcotest.failf "round %d: odc/%s: %s" round s.H.name
            (H.outcome_to_string outcome))
      (Ser_par.Par.parallel_map ~chunk:1 H.run_scenario odc)
  done

let () =
  Alcotest.run "faultsim_pool"
    [
      ( "fixtures",
        [
          Alcotest.test_case "odc group on a 2-wide pool, 5 rounds" `Quick
            test_odc_group_pooled;
        ] );
    ]
