(* The request layer's front-end contract: the serve cache keys
   (params_json) and the spooled request form are pinned byte for byte,
   and every flag surface derived from Request.Flags builds the request
   it should. *)

module Request = Ser_cli.Request
module Flags = Ser_cli.Request.Flags
module Json = Ser_util.Json
open Cmdliner

let c17 = Request.Spec "c17"

(* -------------------- (a) golden cache keys ------------------------ *)

let test_params_golden () =
  let d op = Request.defaults op c17 in
  Alcotest.(check string) "request json"
    {|{"op": "analyze","circuit": {"spec": "c17"},"backend": "aserta","vectors": 10000,"charge": 16,"top": 10,"vdds": [],"vths": [],"evals": 120,"greedy": 2,"eval_tier": "exact","tier_k": 6,"q_slope": 6,"fault": "sleep:10","odc_mode": "exhaustive","odc_seed": 1,"odc_threshold": 0.05}|}
    (Json.to_string ~indent:false
       (Request.to_json
          { (d Request.Analyze) with Request.fault = Some (Request.Sleep_ms 10.) }));
  List.iter
    (fun (name, req, golden) ->
      Alcotest.(check string) name golden
        (Json.to_string ~indent:false (Request.params_json req)))
    [
      ( "analyze defaults",
        d Request.Analyze,
        {|{"op": "analyze","vectors": 10000,"backend": "aserta","charge": 16,"top": 10,"vdds": [],"vths": []}|}
      );
      ( "analyze charge",
        { (d Request.Analyze) with Request.charge = 8.5 },
        {|{"op": "analyze","vectors": 10000,"backend": "aserta","charge": 8.5,"top": 10,"vdds": [],"vths": []}|}
      );
      ( "optimize defaults",
        d Request.Optimize,
        {|{"op": "optimize","vectors": 4000,"evals": 120,"greedy": 2,"eval_tier": "exact","tier_k": 6,"vdds": [],"vths": []}|}
      );
      ( "optimize eval_tier",
        { (d Request.Optimize) with Request.eval_tier = "serpp" },
        {|{"op": "optimize","vectors": 4000,"evals": 120,"greedy": 2,"eval_tier": "serpp","tier_k": 6,"vdds": [],"vths": []}|}
      );
      ( "rate defaults",
        d Request.Rate,
        {|{"op": "rate","vectors": 4000,"q_slope": 6,"top": 10,"vdds": [],"vths": []}|}
      );
      ( "rate clock",
        { (d Request.Rate) with Request.clock = Some 250. },
        {|{"op": "rate","vectors": 4000,"clock": 250,"q_slope": 6,"top": 10,"vdds": [],"vths": []}|}
      );
      ( "odc defaults",
        d Request.Odc,
        {|{"op": "odc","vectors": 4000,"odc_mode": "exhaustive","odc_seed": 1,"odc_threshold": 0.05}|}
      );
      ( "odc mode",
        { (d Request.Odc) with Request.odc_mode = "sampled" },
        {|{"op": "odc","vectors": 4000,"odc_mode": "sampled","odc_seed": 1,"odc_threshold": 0.05}|}
      );
    ]

(* ------------------ (b)/(c) derived flag terms --------------------- *)

let eval_term term args =
  match
    Cmd.eval_value ~argv:(Array.of_list ("sertool" :: args))
      (Cmd.v (Cmd.info "sertool") term)
  with
  | Ok (`Ok v) -> v
  | Ok (`Help | `Version) -> Alcotest.fail "help or version requested"
  | Error _ -> Alcotest.failf "flags rejected: %s" (String.concat " " args)

let ops = [ Request.Analyze; Request.Optimize; Request.Rate; Request.Odc ]

let test_one_shot_defaults () =
  List.iter
    (fun op ->
      let override = eval_term (Flags.one_shot op) [] in
      Alcotest.(check bool)
        (Request.op_to_string op ^ " flags absent = defaults")
        true
        (override (Request.defaults op c17) = Request.defaults op c17))
    ops

(* "sertool client OP CIRCUIT FLAGS...": the positionals as client
   declares them, the request fields from Flags.client *)
let client_request args =
  let op =
    let ops = [ ("optimize", Request.Optimize); ("odc", Request.Odc) ] in
    Arg.(required & pos 0 (some (enum ops)) None & info [])
  in
  let spec = Arg.(required & pos 1 (some string) None & info []) in
  let build op spec override =
    let req = override (Request.defaults op (Request.Spec spec)) in
    match Request.validate req with
    | Ok r -> r
    | Error d -> Alcotest.failf "invalid: %s" (Ser_util.Diag.to_string d)
  in
  eval_term Term.(const build $ op $ spec $ Flags.client) args

let test_client_fields () =
  let r =
    client_request
      [ "optimize"; "c17"; "--eval-tier"; "serpp"; "--tier-k"; "3" ]
  in
  Alcotest.(check string) "eval_tier" "serpp" r.Request.eval_tier;
  Alcotest.(check int) "tier_k" 3 r.Request.tier_k;
  Alcotest.(check int) "untouched vectors keep the op default" 4000
    r.Request.vectors;
  let r =
    client_request [ "odc"; "c17"; "--mode"; "sampled"; "--seed"; "7" ]
  in
  Alcotest.(check string) "odc_mode" "sampled" r.Request.odc_mode;
  Alcotest.(check int) "odc_seed" 7 r.Request.odc_seed;
  let r = client_request [ "odc"; "c17"; "--fault"; "sleep:50" ] in
  Alcotest.(check (option string)) "fault" (Some "sleep:50")
    (Option.map Request.fault_to_string r.Request.fault)

let test_batch_defaults () =
  let job = eval_term Flags.batch [] (Request.Spec "c432") in
  Alcotest.(check bool) "analyze, 2000 vectors, 60 evals, greedy 1" true
    (job
    = {
        (Request.defaults Request.Analyze (Request.Spec "c432")) with
        Request.vectors = 2000;
        evals = 60;
        greedy = 1;
      });
  let job =
    eval_term Flags.batch [ "--cmd"; "optimize"; "--evals"; "7" ] c17
  in
  Alcotest.(check bool) "optimize job" true
    (job.Request.op = Request.Optimize && job.Request.evals = 7)

let of_json_total_prop =
  let valid =
    List.map Request.to_json
      [
        Request.defaults Request.Analyze c17;
        {
          (Request.defaults Request.Optimize (Request.Inline_bench "INPUT(a)"))
          with
          Request.id = Some "k";
          eval_tier = "serpp";
          vdds = [ 0.9; 1.1 ];
          fault = Some (Request.Exit 3);
        };
        Request.defaults Request.Rate c17;
        { (Request.defaults Request.Odc c17) with Request.odc_mode = "sampled" };
      ]
  in
  Json_gen.total_prop ~name:"of_json is total" ~valid Request.of_json

let () =
  Alcotest.run "cli"
    [
      ( "request",
        [
          Alcotest.test_case "params_json golden bytes" `Quick
            test_params_golden;
          QCheck_alcotest.to_alcotest of_json_total_prop;
        ] );
      ( "flags",
        [
          Alcotest.test_case "one-shot defaults" `Quick test_one_shot_defaults;
          Alcotest.test_case "client sets every field" `Quick
            test_client_fields;
          Alcotest.test_case "batch job request" `Quick test_batch_defaults;
        ] );
    ]
