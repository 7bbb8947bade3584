module Odc = Ser_odc.Odc
module Circuit = Ser_netlist.Circuit
module Gate = Ser_netlist.Gate
module Probs = Ser_logicsim.Probs
module Rng = Ser_rng.Rng
module Json = Ser_util.Json
module Request = Ser_cli.Request

(* ---------------- random circuits for the soundness property ------- *)

(* Small random DAGs (<= 12 primary inputs) so the brute-force oracle
   can enumerate every input vector. *)
let random_circuit seed =
  let rng = Rng.create seed in
  let n_pi = 3 + Rng.int rng 5 in
  let n_gates = 4 + Rng.int rng 17 in
  let kinds =
    [| Gate.And; Gate.Nand; Gate.Or; Gate.Nor; Gate.Xor; Gate.Xnor;
       Gate.Buf; Gate.Not |]
  in
  let b = Circuit.Builder.create ~name:(Printf.sprintf "rand%d" seed) () in
  let nodes = ref [] in
  let used = ref (Hashtbl.create 32) in
  for i = 0 to n_pi - 1 do
    nodes := Circuit.Builder.add_input b (Printf.sprintf "i%d" i) :: !nodes
  done;
  for g = 0 to n_gates - 1 do
    let pool = Array.of_list !nodes in
    let kind = kinds.(Rng.int rng (Array.length kinds)) in
    let arity =
      match kind with
      | Gate.Buf | Gate.Not -> 1
      | _ -> 2 + Rng.int rng 2
    in
    (* sample without replacement: XOR/XNOR reject duplicate pins *)
    let pool = Array.copy pool in
    let n = Array.length pool in
    for i = 0 to min arity n - 1 do
      let j = i + Rng.int rng (n - i) in
      let t = pool.(i) in
      pool.(i) <- pool.(j);
      pool.(j) <- t
    done;
    let fanin = Array.to_list (Array.sub pool 0 (min arity n)) in
    List.iter (fun id -> Hashtbl.replace !used id ()) fanin;
    let id =
      Circuit.Builder.add_gate b ~name:(Printf.sprintf "g%d" g) kind fanin
    in
    nodes := id :: !nodes
  done;
  (* the builder rejects dangling nodes: every sink gate becomes a PO
     and every unused PI gets a BUF sink *)
  for i = 0 to n_pi - 1 do
    if not (Hashtbl.mem !used i) then begin
      let id =
        Circuit.Builder.add_gate b ~name:(Printf.sprintf "sink%d" i) Gate.Buf
          [ i ]
      in
      Circuit.Builder.set_output b id
    end
  done;
  List.iter
    (fun id -> if id >= n_pi && not (Hashtbl.mem !used id) then
        Circuit.Builder.set_output b id)
    !nodes;
  Circuit.Builder.build_exn b

let all_vectors n_pi =
  List.init (1 lsl n_pi) (fun v ->
      Array.init n_pi (fun i -> (v lsr i) land 1 = 1))

(* The load-bearing direction: a Proven_masked verdict claims NO input
   vector propagates the flip. Check every vector with the independent
   single-vector oracle. *)
let proven_masked_sound_prop =
  QCheck.Test.make ~name:"proven-masked sites never flip a PO (brute force)"
    ~count:60 QCheck.small_nat (fun seed ->
      let c = random_circuit seed in
      let n_pi = Array.length c.Circuit.inputs in
      let r =
        Odc.analyze
          ~config:{ Odc.default with Odc.vectors = 200; pi_cap = 12 }
          c
      in
      let vectors = all_vectors n_pi in
      Array.for_all
        (fun (s : Odc.site) ->
          s.Odc.cls <> Odc.Proven_masked
          ||
          let id =
            match Circuit.find_by_name c s.Odc.gate with
            | Some id -> id
            | None -> Alcotest.failf "report names unknown gate %s" s.Odc.gate
          in
          List.for_all
            (fun vec ->
              let flips = Probs.detection_counts_for_vector c vec ~strike:id in
              not (Array.exists Fun.id flips))
            vectors)
        r.Odc.sites)

(* Observed sites claim a witness exists; on exhaustively-proved sites
   obs is exact, so the oracle must find at least one flipping vector. *)
let observed_has_witness_prop =
  QCheck.Test.make ~name:"observed sites have a flipping vector" ~count:30
    QCheck.small_nat (fun seed ->
      let c = random_circuit (seed + 1000) in
      let n_pi = Array.length c.Circuit.inputs in
      let r =
        Odc.analyze
          ~config:{ Odc.default with Odc.vectors = 100; pi_cap = 12 }
          c
      in
      let vectors = all_vectors n_pi in
      Array.for_all
        (fun (s : Odc.site) ->
          s.Odc.cls <> Odc.Observed
          ||
          let id = Option.get (Circuit.find_by_name c s.Odc.gate) in
          List.exists
            (fun vec ->
              let flips = Probs.detection_counts_for_vector c vec ~strike:id in
              Array.exists Fun.id flips)
            vectors)
        r.Odc.sites)

(* ---------------- TMR: the canonical don't-care factory ------------ *)

let tmr17 = lazy (Ser_harden.Transforms.tmr (Ser_circuits.Iscas.load "c17"))

let test_tmr_proven () =
  let c = Lazy.force tmr17 in
  let r = Odc.analyze ~config:{ Odc.default with Odc.vectors = 500 } c in
  Alcotest.(check int) "proven" 18 (Odc.n_proven r);
  Alcotest.(check int) "observed" 8 (Odc.n_observed r);
  Alcotest.(check int) "sampled" 0 (Odc.n_sampled r);
  (* brute-force every vector for every proven site *)
  let vectors = all_vectors (Array.length c.Circuit.inputs) in
  Array.iter
    (fun (s : Odc.site) ->
      if s.Odc.cls = Odc.Proven_masked then
        let id = Option.get (Circuit.find_by_name c s.Odc.gate) in
        List.iter
          (fun vec ->
            let flips = Probs.detection_counts_for_vector c vec ~strike:id in
            if Array.exists Fun.id flips then
              Alcotest.failf "proven site %s flips a PO" s.Odc.gate)
          vectors)
    r.Odc.sites

let test_prune_bit_identical () =
  let c = Lazy.force tmr17 in
  let r = Odc.analyze ~config:{ Odc.default with Odc.vectors = 300 } c in
  let prune =
    match Odc.prune_set c r with
    | Ok p -> p
    | Error d -> Alcotest.fail (Ser_util.Diag.to_string d)
  in
  Alcotest.(check int) "prune cardinality" (Odc.n_proven r)
    (Array.fold_left (fun n b -> if b then n + 1 else n) 0 prune);
  let lib = Ser_cell.Library.create () in
  let asg = Ser_sta.Assignment.uniform lib c in
  let config =
    { Aserta.Analysis.default_config with Aserta.Analysis.vectors = 800 }
  in
  let plain = Aserta.Analysis.run ~config lib asg in
  let pruned = Aserta.Analysis.run ~config ~prune lib asg in
  Alcotest.(check bool) "total bit-identical" true
    (Int64.bits_of_float plain.Aserta.Analysis.total
    = Int64.bits_of_float pruned.Aserta.Analysis.total);
  Array.iteri
    (fun i x ->
      if
        Int64.bits_of_float x
        <> Int64.bits_of_float pruned.Aserta.Analysis.unreliability.(i)
      then Alcotest.failf "per-gate U differs at node %d" i)
    plain.Aserta.Analysis.unreliability

let test_obs_array () =
  let c = Lazy.force tmr17 in
  let r = Odc.analyze ~config:{ Odc.default with Odc.vectors = 300 } c in
  let obs =
    match Odc.obs_array c r with
    | Ok o -> o
    | Error d -> Alcotest.fail (Ser_util.Diag.to_string d)
  in
  Array.iter
    (fun (s : Odc.site) ->
      let id = Option.get (Circuit.find_by_name c s.Odc.gate) in
      match s.Odc.cls with
      | Odc.Proven_masked ->
        Alcotest.(check (float 0.)) "proven obs 0" 0. obs.(id)
      | Odc.Observed ->
        if obs.(id) <= 0. then Alcotest.failf "observed %s has obs 0" s.Odc.gate
      | Odc.Sampled_unobserved -> ())
    r.Odc.sites;
  Array.iter
    (fun pi -> Alcotest.(check (float 0.)) "uncovered = 1" 1. obs.(pi))
    c.Circuit.inputs

(* ---------------- determinism and config edges --------------------- *)

let test_sampled_deterministic_across_jobs () =
  let c = Ser_circuits.Iscas.load "c432" in
  let config = { Odc.default with Odc.mode = Odc.Sampled; vectors = 400 } in
  Ser_par.Par.set_jobs 1;
  let r1 = Odc.analyze ~config c in
  Ser_par.Par.set_jobs 2;
  let r2 = Odc.analyze ~config c in
  Ser_par.Par.set_jobs 1;
  Alcotest.(check string) "reports identical for -j 1 / -j 2"
    (Json.to_string (Odc.to_json r1))
    (Json.to_string (Odc.to_json r2))

let test_config_edges () =
  let c = Ser_circuits.Iscas.load "c17" in
  (match Odc.analyze_checked ~config:{ Odc.default with Odc.vectors = 0 } c with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "vectors = 0 accepted");
  (match Odc.analyze_checked ~config:{ Odc.default with Odc.pi_cap = 21 } c with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "pi_cap = 21 accepted");
  (match Odc.analyze_checked ~config:{ Odc.default with Odc.pi_cap = -1 } c with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "pi_cap = -1 accepted");
  (* pi_cap 0 is legal: proofs are simply never attempted *)
  match Odc.analyze_checked ~config:{ Odc.default with Odc.pi_cap = 0 } c with
  | Ok r -> Alcotest.(check int) "no proofs at cap 0" 0 (Odc.n_proven r)
  | Error d -> Alcotest.fail (Ser_util.Diag.to_string d)

let test_json_round_trip () =
  let c = Lazy.force tmr17 in
  let r = Odc.analyze ~config:{ Odc.default with Odc.vectors = 200 } c in
  let j = Odc.to_json r in
  match Odc.of_json j with
  | Error d -> Alcotest.fail (Ser_util.Diag.to_string d)
  | Ok r2 ->
    Alcotest.(check string) "round-trip canonical"
      (Json.to_string j)
      (Json.to_string (Odc.to_json r2))

let test_digest_mismatch () =
  let r =
    Odc.analyze
      ~config:{ Odc.default with Odc.vectors = 100 }
      (Ser_circuits.Iscas.load "c17")
  in
  match Odc.prune_set (Ser_circuits.Iscas.load "c432") r with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "cross-netlist report accepted"

(* ---------------- request codec ------------------------------------ *)

let test_request_codec () =
  let req =
    {
      (Request.defaults Request.Odc (Request.Spec "c17")) with
      Request.vectors = 1234;
      odc_mode = "sampled";
      odc_seed = 7;
      odc_threshold = 0.1;
    }
  in
  match Request.of_json (Request.to_json req) with
  | Error d -> Alcotest.fail (Ser_util.Diag.to_string d)
  | Ok req2 ->
    Alcotest.(check string) "params_json stable"
      (Json.to_string (Request.params_json req))
      (Json.to_string (Request.params_json req2));
    Alcotest.(check string) "mode" "sampled" req2.Request.odc_mode;
    Alcotest.(check int) "seed" 7 req2.Request.odc_seed;
    Alcotest.(check (float 0.)) "threshold" 0.1 req2.Request.odc_threshold

let decode_err json =
  match Request.of_json json with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "invalid request accepted"

let test_request_validation () =
  let base =
    Request.to_json (Request.defaults Request.Odc (Request.Spec "c17"))
  in
  let with_field name v =
    match base with
    | Json.Obj fields ->
      Json.Obj (List.map (fun (k, x) -> if k = name then (k, v) else (k, x)) fields)
    | _ -> assert false
  in
  decode_err (with_field "backend" (Json.Str "serpp"));
  decode_err (with_field "odc_mode" (Json.Str "bogus"));
  decode_err (with_field "odc_threshold" (Json.Num 1.5));
  decode_err (with_field "odc_threshold" (Json.Num Float.nan));
  (* defaults: a request without the odc fields still decodes *)
  match
    Request.of_json
      (Json.Obj
         [ ("op", Json.Str "odc"); ("circuit", Json.Str "c17") ])
  with
  | Error d -> Alcotest.fail (Ser_util.Diag.to_string d)
  | Ok r ->
    Alcotest.(check string) "default mode" "exhaustive" r.Request.odc_mode;
    Alcotest.(check int) "default vectors" 4000 r.Request.vectors

let of_json_total_prop =
  let valid =
    List.map
      (fun (mode, c) ->
        Odc.to_json
          (Odc.analyze ~config:{ Odc.default with Odc.mode; vectors = 200 } c))
      [
        (Odc.Exhaustive, Ser_circuits.Iscas.c17 ());
        (Odc.Sampled, Ser_harden.Transforms.tmr (Ser_circuits.Iscas.c17 ()));
      ]
  in
  Json_gen.total_prop ~name:"of_json is total" ~valid Odc.of_json

let () =
  Alcotest.run "odc"
    [
      ( "soundness",
        [
          QCheck_alcotest.to_alcotest proven_masked_sound_prop;
          QCheck_alcotest.to_alcotest observed_has_witness_prop;
          Alcotest.test_case "tmr(c17) proven set" `Quick test_tmr_proven;
        ] );
      ( "consumers",
        [
          Alcotest.test_case "prune is bit-identical" `Quick
            test_prune_bit_identical;
          Alcotest.test_case "obs_array" `Quick test_obs_array;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "sampled, -j 1 vs -j 2" `Quick
            test_sampled_deterministic_across_jobs;
          Alcotest.test_case "json round trip" `Quick test_json_round_trip;
          QCheck_alcotest.to_alcotest of_json_total_prop;
        ] );
      ( "edges",
        [
          Alcotest.test_case "config validation" `Quick test_config_edges;
          Alcotest.test_case "digest mismatch" `Quick test_digest_mismatch;
        ] );
      ( "request",
        [
          Alcotest.test_case "codec round trip" `Quick test_request_codec;
          Alcotest.test_case "validation" `Quick test_request_validation;
        ] );
    ]
