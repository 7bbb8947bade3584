module Bitsim = Ser_logicsim.Bitsim
module Probs = Ser_logicsim.Probs
module Circuit = Ser_netlist.Circuit
module Gate = Ser_netlist.Gate

let popcount_prop =
  QCheck.Test.make ~name:"popcount matches naive bit count" ~count:300
    QCheck.int (fun x ->
      let x = x land max_int in
      let naive = ref 0 in
      for b = 0 to Bitsim.bits_per_word - 1 do
        if (x lsr b) land 1 = 1 then incr naive
      done;
      Bitsim.popcount (x land Bitsim.mask_of Bitsim.bits_per_word) = !naive)

let test_mask_of () =
  Alcotest.(check int) "zero" 0 (Bitsim.mask_of 0);
  Alcotest.(check int) "three" 7 (Bitsim.mask_of 3);
  Alcotest.(check int) "count of full mask" Bitsim.bits_per_word
    (Bitsim.popcount (Bitsim.mask_of Bitsim.bits_per_word));
  try
    ignore (Bitsim.mask_of 99);
    Alcotest.fail "oversized mask accepted"
  with Invalid_argument _ -> ()

let eval_matches_bool_prop =
  QCheck.Test.make ~name:"bit-parallel eval = per-vector eval on c17" ~count:100
    QCheck.small_nat
    (fun seed ->
      let c = Ser_circuits.Iscas.c17 () in
      let rng = Ser_rng.Rng.create seed in
      let batch = Bitsim.random_batch rng c ~n_patterns:62 in
      (* check 8 random bit positions *)
      let ok = ref true in
      for _ = 1 to 8 do
        let bit = Ser_rng.Rng.int rng 62 in
        let vec =
          Array.map
            (fun id -> (batch.Bitsim.values.(id) lsr bit) land 1 = 1)
            c.Circuit.inputs
        in
        let values = Bitsim.eval_vector c vec in
        Array.iteri
          (fun id v ->
            let bitv = (batch.Bitsim.values.(id) lsr bit) land 1 = 1 in
            if v <> bitv then ok := false)
          values
      done;
      !ok)

let test_ones_count () =
  let c = Ser_circuits.Iscas.c17 () in
  (* constant-0 inputs: NAND outputs are all 1 *)
  let batch = Bitsim.eval c ~pi_words:(Array.make 5 0) ~n_patterns:10 in
  Alcotest.(check int) "input zeros" 0 (Bitsim.ones_count batch 0);
  Alcotest.(check int) "nand of zeros is one" 10 (Bitsim.ones_count batch 5)

(* ----------------- signal probabilities ----------------- *)

let test_signal_probs_tree () =
  (* a fanout-free tree: analytic probabilities are exact *)
  let b = Circuit.Builder.create () in
  let i1 = Circuit.Builder.add_input b "i1" in
  let i2 = Circuit.Builder.add_input b "i2" in
  let i3 = Circuit.Builder.add_input b "i3" in
  let a = Circuit.Builder.add_gate b Gate.And [ i1; i2 ] in
  let o = Circuit.Builder.add_gate b Gate.Or [ a; i3 ] in
  let n = Circuit.Builder.add_gate b Gate.Not [ o ] in
  Circuit.Builder.set_output b n;
  let c = Circuit.Builder.build_exn b in
  let p = Probs.signal_probabilities c in
  Alcotest.(check (float 1e-9)) "and" 0.25 p.(a);
  Alcotest.(check (float 1e-9)) "or" 0.625 p.(o);
  Alcotest.(check (float 1e-9)) "not" 0.375 p.(n)

let test_signal_probs_xor () =
  let b = Circuit.Builder.create () in
  let i1 = Circuit.Builder.add_input b "i1" in
  let i2 = Circuit.Builder.add_input b "i2" in
  let x = Circuit.Builder.add_gate b Gate.Xor [ i1; i2 ] in
  let xn = Circuit.Builder.add_gate b Gate.Xnor [ i1; i2 ] in
  Circuit.Builder.set_output b x;
  Circuit.Builder.set_output b xn;
  let c = Circuit.Builder.build_exn b in
  let p = Probs.signal_probabilities c in
  Alcotest.(check (float 1e-9)) "xor" 0.5 p.(x);
  Alcotest.(check (float 1e-9)) "xnor" 0.5 p.(xn)

let test_signal_probs_pi_prob () =
  let b = Circuit.Builder.create () in
  let i1 = Circuit.Builder.add_input b "i1" in
  let i2 = Circuit.Builder.add_input b "i2" in
  let a = Circuit.Builder.add_gate b Gate.And [ i1; i2 ] in
  Circuit.Builder.set_output b a;
  let c = Circuit.Builder.build_exn b in
  let p = Probs.signal_probabilities ~pi_prob:0.9 c in
  Alcotest.(check (float 1e-9)) "and of 0.9" 0.81 p.(a)

let test_mc_close_to_analytic () =
  let c = Ser_circuits.Iscas.c17 () in
  let analytic = Probs.signal_probabilities c in
  let mc =
    Probs.signal_probabilities_mc ~rng:(Ser_rng.Rng.create 5) ~vectors:20_000 c
  in
  (* c17 has reconvergent fan-out, so the independence-assumption
     analytic values carry a small bias against the exact MC values *)
  Array.iteri
    (fun id pa ->
      Alcotest.(check bool)
        (Printf.sprintf "node %d: %.3f vs %.3f" id pa mc.(id))
        true
        (Float.abs (pa -. mc.(id)) < 0.06))
    analytic

(* ----------------- sensitization ----------------- *)

let test_side_sensitization () =
  let b = Circuit.Builder.create () in
  let i1 = Circuit.Builder.add_input b "i1" in
  let i2 = Circuit.Builder.add_input b "i2" in
  let i3 = Circuit.Builder.add_input b "i3" in
  let a = Circuit.Builder.add_gate b Gate.And [ i1; i2; i3 ] in
  let o = Circuit.Builder.add_gate b Gate.Nor [ a; i3 ] in
  let x = Circuit.Builder.add_gate b Gate.Xor [ a; o ] in
  Circuit.Builder.set_output b x;
  let c = Circuit.Builder.build_exn b in
  let probs = Probs.signal_probabilities c in
  (* AND3: sides must be 1: 0.5 * 0.5 *)
  Alcotest.(check (float 1e-9)) "and sides" 0.25
    (Probs.side_sensitization c ~probs ~gate:a ~pin:0);
  (* NOR: side must be 0 *)
  Alcotest.(check (float 1e-9)) "nor side" (1. -. probs.(i3))
    (Probs.side_sensitization c ~probs ~gate:o ~pin:0);
  (* XOR: always sensitized *)
  Alcotest.(check (float 1e-9)) "xor" 1.
    (Probs.side_sensitization c ~probs ~gate:x ~pin:1);
  (* by driver id *)
  Alcotest.(check (float 1e-9)) "driver form" 0.25
    (Probs.sensitization_to_driver c ~probs ~gate:a ~driver:i1);
  Alcotest.(check bool) "unknown driver raises" true
    (try ignore (Probs.sensitization_to_driver c ~probs ~gate:a ~driver:x); false
     with Not_found -> true)

(* ----------------- path probabilities ----------------- *)

let exact_pij c =
  (* exhaustive over all input vectors (few inputs only) *)
  let n_in = Array.length c.Circuit.inputs in
  let n = Circuit.node_count c in
  let n_pos = Array.length c.Circuit.outputs in
  let counts = Array.make_matrix n n_pos 0 in
  let total = 1 lsl n_in in
  for code = 0 to total - 1 do
    let vec = Array.init n_in (fun i -> (code lsr i) land 1 = 1) in
    for g = 0 to n - 1 do
      if not (Circuit.is_input c g) then begin
        let det = Probs.detection_counts_for_vector c vec ~strike:g in
        Array.iteri (fun pos hit -> if hit then counts.(g).(pos) <- counts.(g).(pos) + 1) det
      end
    done
  done;
  Array.map (Array.map (fun k -> float_of_int k /. float_of_int total)) counts

let test_pij_c17_exact () =
  let c = Ser_circuits.Iscas.c17 () in
  let exact = exact_pij c in
  let mc =
    Probs.path_probabilities ~rng:(Ser_rng.Rng.create 9) ~vectors:20_000 c
  in
  for g = 0 to Circuit.node_count c - 1 do
    if not (Circuit.is_input c g) then
      Array.iteri
        (fun pos pe ->
          Alcotest.(check bool)
            (Printf.sprintf "gate %d PO %d: %.3f vs %.3f" g pos pe
               mc.Probs.p.(g).(pos))
            true
            (Float.abs (pe -. mc.Probs.p.(g).(pos)) < 0.02))
        exact.(g)
  done

let test_pjj_is_one () =
  let c = Ser_circuits.Iscas.c17 () in
  let pp = Probs.path_probabilities ~rng:(Ser_rng.Rng.create 1) ~vectors:620 c in
  Array.iteri
    (fun pos id ->
      Alcotest.(check (float 1e-9)) "P_jj = 1" 1. pp.Probs.p.(id).(pos))
    c.Circuit.outputs

let test_pij_input_rows_zero () =
  let c = Ser_circuits.Iscas.c17 () in
  let pp = Probs.path_probabilities ~rng:(Ser_rng.Rng.create 1) ~vectors:62 c in
  Array.iter
    (fun id ->
      Array.iter
        (fun v -> Alcotest.(check (float 0.)) "PI row zero" 0. v)
        pp.Probs.p.(id))
    c.Circuit.inputs

let pij_brute_force_prop =
  QCheck.Test.make ~name:"fault sim matches per-vector flip on random circuits"
    ~count:20 QCheck.small_nat
    (fun seed ->
      (* build a small random circuit *)
      let rng = Ser_rng.Rng.create (seed + 1000) in
      let b = Circuit.Builder.create () in
      let inputs = List.init 4 (fun i -> Circuit.Builder.add_input b (Printf.sprintf "i%d" i)) in
      let nodes = ref (Array.of_list inputs) in
      for _ = 1 to 8 do
        let pick () = !nodes.(Ser_rng.Rng.int rng (Array.length !nodes)) in
        let a = pick () in
        let c0 = pick () in
        let kind = Ser_rng.Rng.choose rng [| Gate.Nand; Gate.Nor; Gate.And; Gate.Or |] in
        let g = Circuit.Builder.add_gate b kind [ a; c0 ] in
        nodes := Array.append !nodes [| g |]
      done;
      (* outputs: last two created nodes, plus mark all dangling as outputs *)
      let c =
        Array.iter
          (fun id -> Circuit.Builder.set_output b id)
          (Array.sub !nodes (Array.length !nodes - 2) 2);
        match Circuit.Builder.build_trimmed b with
        | Ok c -> c
        | Error _ -> Ser_circuits.Iscas.c17 ()
      in
      let exact = exact_pij c in
      let mc = Probs.path_probabilities ~rng:(Ser_rng.Rng.create seed) ~vectors:20_000 c in
      let ok = ref true in
      for g = 0 to Circuit.node_count c - 1 do
        if not (Circuit.is_input c g) then
          Array.iteri
            (fun pos pe ->
              if Float.abs (pe -. mc.Probs.p.(g).(pos)) > 0.03 then ok := false)
            exact.(g)
      done;
      !ok)

(* a random fan-out-free circuit: every signal is consumed exactly once *)
let random_tree seed =
  let rng = Ser_rng.Rng.create seed in
  let b = Circuit.Builder.create () in
  let available = ref [] in
  for i = 0 to 5 do
    available := Circuit.Builder.add_input b (Printf.sprintf "i%d" i) :: !available
  done;
  while List.length !available > 1 do
    match !available with
    | a :: c0 :: rest ->
      let kind =
        Ser_rng.Rng.choose rng
          [| Gate.And; Gate.Or; Gate.Nand; Gate.Nor; Gate.Xor |]
      in
      let g = Circuit.Builder.add_gate b kind [ a; c0 ] in
      available := rest @ [ g ]
    | _ -> assert false
  done;
  Circuit.Builder.set_output b (List.hd !available);
  Circuit.Builder.build_exn b

let analytic_exact_on_trees_prop =
  QCheck.Test.make ~name:"analytic P_ij matches exhaustive on trees" ~count:25
    QCheck.small_nat
    (fun seed ->
      let c = random_tree seed in
      let analytic = Probs.path_probabilities_analytic c in
      let exact = exact_pij c in
      let ok = ref true in
      for g = 0 to Circuit.node_count c - 1 do
        if not (Circuit.is_input c g) then
          Array.iteri
            (fun pos pe ->
              if Float.abs (pe -. analytic.Probs.p.(g).(pos)) > 1e-9 then
                ok := false)
            exact.(g)
      done;
      !ok)

let test_analytic_close_on_c17 () =
  let c = Ser_circuits.Iscas.c17 () in
  let analytic = Probs.path_probabilities_analytic c in
  let exact = exact_pij c in
  (* reconvergence makes it approximate; it must stay correlated *)
  let fa = Array.concat (Array.to_list analytic.Probs.p) in
  let fe = Array.concat (Array.to_list exact) in
  Alcotest.(check bool) "correlated" true (Ser_linalg.Stats.pearson fa fe > 0.85);
  (* PO gates keep P_jj = 1 *)
  Array.iteri
    (fun pos id ->
      Alcotest.(check (float 1e-9)) "P_jj" 1. analytic.Probs.p.(id).(pos))
    c.Circuit.outputs

let test_biased_inputs () =
  let c = Ser_circuits.Iscas.c17 () in
  let pi_probs = [| 0.9; 0.9; 0.9; 0.9; 0.9 |] in
  let rng = Ser_rng.Rng.create 8 in
  let batch = Bitsim.random_batch ~pi_probs rng c ~n_patterns:62 in
  (* first input should be mostly ones over many draws *)
  let ones = ref 0 and total = ref 0 in
  for _ = 1 to 50 do
    let b = Bitsim.random_batch ~pi_probs rng c ~n_patterns:62 in
    ones := !ones + Bitsim.ones_count b c.Circuit.inputs.(0);
    total := !total + 62
  done;
  ignore batch;
  let f = float_of_int !ones /. float_of_int !total in
  Alcotest.(check bool) (Printf.sprintf "bias %.2f" f) true
    (f > 0.85 && f < 0.95);
  (* analytic signal probabilities take the same bias *)
  let p = Probs.signal_probabilities ~pi_probs c in
  Alcotest.(check (float 1e-9)) "input prob" 0.9 p.(c.Circuit.inputs.(0));
  (* NAND(0.9, 0.9) = 1 - 0.81 *)
  Alcotest.(check (float 1e-9)) "nand prob" 0.19 p.(5);
  (* length validation *)
  try
    ignore (Bitsim.random_batch ~pi_probs:[| 0.5 |] rng c ~n_patterns:62);
    Alcotest.fail "length mismatch accepted"
  with Invalid_argument _ -> ()

(* ----------------- masking kernel vs the per-gate oracle ----------------- *)

module Odc = Ser_odc.Odc
module Oracle = Masking_oracle

let bits_equal what a b =
  Array.iteri
    (fun i row ->
      Array.iteri
        (fun j v ->
          if Int64.bits_of_float v <> Int64.bits_of_float b.(i).(j) then
            Alcotest.failf "%s: P_ij differs at node %d PO %d (%h vs %h)" what i
              j v b.(i).(j))
        row)
    a

let site_id c (s : Odc.site) = Option.get (Circuit.find_by_name c s.Odc.gate)

(* In Sampled mode every site's [detected] is its screen count. *)
let screen_counts ~seed ~vectors c =
  let config = { Odc.default with Odc.mode = Odc.Sampled; vectors; seed } in
  let r = Odc.analyze ~config c in
  let counts = Array.make (Circuit.node_count c) 0 in
  Array.iter (fun s -> counts.(site_id c s) <- s.Odc.detected) r.Odc.sites;
  counts

(* Every site the screen leaves unobserved and whose support fits
   [pi_cap] is settled by [Odc.prove] with the oracle's exact counts.
   Returns the number of proofs compared. *)
let check_proofs what ~vectors ~pi_cap c =
  let seed = 5 in
  let screen = Oracle.screen_counts ~seed ~vectors c in
  let r =
    Odc.analyze ~config:{ Odc.mode = Odc.Exhaustive; vectors; seed; pi_cap } c
  in
  let proofs = ref 0 in
  Array.iter
    (fun (s : Odc.site) ->
      let id = site_id c s in
      if screen.(id) > 0 then begin
        if s.Odc.detected <> screen.(id) || s.Odc.tested <> vectors then
          Alcotest.failf "%s: screen-observed %s: %d/%d vs oracle %d" what
            s.Odc.gate s.Odc.detected s.Odc.tested screen.(id)
      end
      else if s.Odc.support >= 0 && s.Odc.support <= pi_cap then begin
        incr proofs;
        let det, total = Oracle.prove c id in
        let tested = if det = 0 then vectors + total else total in
        if
          s.Odc.detected <> det || s.Odc.tested <> tested
          || s.Odc.support <> Array.length (Oracle.support c id)
          || (det = 0) <> (s.Odc.cls = Odc.Proven_masked)
        then
          Alcotest.failf "%s: proof of %s: %d/%d vs oracle %d/%d" what
            s.Odc.gate s.Odc.detected s.Odc.tested det total
      end)
    r.Odc.sites;
  !proofs

let check_against_oracle what ?pi_probs ?prune ~vectors c =
  let rng () = Ser_rng.Rng.create 21 in
  let kernel =
    Probs.path_probabilities ?pi_probs ?prune ~rng:(rng ()) ~vectors c
  in
  bits_equal what kernel.Probs.p
    (Oracle.path_probabilities ?pi_probs ?prune ~rng:(rng ()) ~vectors c);
  let screen = screen_counts ~seed:3 ~vectors c in
  let expected = Oracle.screen_counts ~seed:3 ~vectors c in
  Array.iteri
    (fun id e ->
      if screen.(id) <> e then
        Alcotest.failf "%s: screen count of node %d: %d vs oracle %d" what id
          screen.(id) e)
    expected

(* The analytic P_ij against the per-pin reference, under fair and
   biased signal probabilities. *)
let check_analytic what c =
  List.iter
    (fun probs ->
      bits_equal what
        (Probs.path_probabilities_analytic ~probs c).Probs.p
        (Oracle.path_probabilities_analytic ~probs c))
    [
      Probs.signal_probabilities c;
      Probs.signal_probabilities
        ~pi_probs:
          (Array.mapi
             (fun pos _ -> 0.05 +. (0.1 *. float_of_int (pos mod 10)))
             c.Circuit.inputs)
        c;
    ]

let analytic_oracle_prop =
  QCheck.Test.make ~name:"analytic P_ij = per-pin reference, bit for bit"
    ~count:50 Circuit_gen.arb (fun (seed, _, n_gates, depth) ->
      check_analytic "random" (Circuit_gen.circuit ~seed ~n_gates ~depth);
      true)

let oracle_prop =
  QCheck.Test.make ~name:"kernel = per-gate oracle on random circuits" ~count:25
    Circuit_gen.arb (fun (seed, _, n_gates, depth) ->
      let c = Circuit_gen.circuit ~seed ~n_gates ~depth in
      (* never a multiple of 62: a partial last batch every time *)
      let vectors = (62 * (seed mod 3)) + 1 + (seed mod 61) in
      let pi_probs =
        Array.mapi
          (fun pos _ -> 0.1 +. (0.08 *. float_of_int ((seed + (7 * pos)) mod 11)))
          c.Circuit.inputs
      in
      check_against_oracle "random" ~pi_probs ~vectors c;
      check_against_oracle "random, fair" ~vectors c;
      ignore (check_proofs "random" ~vectors:(1 + (seed mod 5)) ~pi_cap:12 c);
      true)

(* A hand-built circuit with every FFR corner: a PO that also fans
   out, a stem driving two pins of one successor, members feeding
   XOR/XNOR/BUF/NOT successors, and a dead (fanout-0) primary input.
   Dead gates cannot be built: Builder.build rejects them and
   build_trimmed deletes them. *)
let corners () =
  let b = Circuit.Builder.create ~name:"corners" () in
  let i =
    Array.init 5 (fun k -> Circuit.Builder.add_input b (Printf.sprintf "i%d" k))
  in
  let g kind fanin = Circuit.Builder.add_gate b kind fanin in
  let n1 = g Gate.Nand [ i.(0); i.(1) ] in
  let n2 = g Gate.Buf [ n1 ] in
  let n3 = g Gate.Not [ n2 ] in
  let n4 = g Gate.And [ n3; n3; i.(2) ] in
  let n5 = g Gate.Xor [ n4; i.(3) ] in
  let n6 = g Gate.Nor [ i.(0); i.(2) ] in
  let n7 = g Gate.Xnor [ n6; n5 ] in
  let n8 = g Gate.Or [ n5; i.(1) ] in
  let n9 = g Gate.Nand [ n8; n7; n1 ] in
  List.iter (Circuit.Builder.set_output b) [ n5; n7; n9 ];
  match Circuit.Builder.build_trimmed b with Ok c -> c | Error e -> failwith e

let test_oracle_fixed () =
  let tmr = Ser_harden.Transforms.tmr (Ser_circuits.Iscas.c17 ()) in
  let tmr_prune =
    let r = Odc.analyze ~config:{ Odc.default with Odc.vectors = 300 } tmr in
    match Odc.prune_set tmr r with
    | Ok p -> p
    | Error d -> Alcotest.fail (Ser_util.Diag.to_string d)
  in
  let generated =
    List.concat_map
      (fun name ->
        List.map
          (fun seed ->
            (Printf.sprintf "%s/%d" name seed, Ser_circuits.Iscas.load ~seed name))
          [ 10; 11; 12; 13 ])
      [ "c432"; "c880" ]
  in
  let cases =
    ("c17", Ser_circuits.Iscas.c17 ())
    :: ("corners", corners ()) :: ("tmr(c17)", tmr) :: generated
  in
  List.iter
    (fun (what, c) ->
      check_analytic what c;
      check_against_oracle what ~vectors:131 c;
      check_against_oracle what
        ~pi_probs:(Array.map (fun _ -> 0.8) c.Circuit.inputs)
        ~vectors:70 c)
    cases;
  check_against_oracle "tmr(c17) pruned" ~prune:tmr_prune ~vectors:131 tmr;
  Alcotest.(check bool) "tmr(c17) prunes" true (Array.exists Fun.id tmr_prune);
  let proofs =
    List.fold_left
      (fun n (what, c) -> n + check_proofs what ~vectors:2 ~pi_cap:10 c)
      0 cases
  in
  Alcotest.(check bool) "proofs compared" true (proofs > 0);
  (* the fixed suite exercises every FFR corner *)
  let cs = List.map snd cases in
  let exists f = List.exists (fun c -> Array.exists (f c) c.Circuit.nodes) cs in
  let kind_of c id = (Circuit.node c id).Circuit.kind in
  let member c (nd : Circuit.node) =
    nd.kind <> Gate.Input && Array.length nd.fanout = 1
    && not (Circuit.is_output c nd.id)
  in
  Alcotest.(check bool) "PO that fans out" true
    (exists (fun c nd ->
         Circuit.is_output c nd.id && Array.length nd.fanout > 0));
  Alcotest.(check bool) "two pins on one successor" true
    (exists (fun _ nd ->
         Array.length nd.fanout = 2 && nd.fanout.(0) = nd.fanout.(1)));
  List.iter
    (fun k ->
      Alcotest.(check bool)
        (Gate.to_string k ^ " successor of a member")
        true
        (exists (fun c nd -> member c nd && kind_of c nd.fanout.(0) = k)))
    [ Gate.Xor; Gate.Xnor; Gate.Buf; Gate.Not ];
  Alcotest.(check bool) "dead primary input" true
    (exists (fun _ nd -> nd.kind = Gate.Input && Array.length nd.fanout = 0))

(* The pool width never changes a bit: P_ij and the ODC screen on a
   sequential pool against a 3-wide one. *)
let test_parallel_identical () =
  let with_jobs j f =
    let prev = Ser_par.Par.jobs () in
    Ser_par.Par.set_jobs j;
    Fun.protect ~finally:(fun () -> Ser_par.Par.set_jobs prev) f
  in
  List.iter
    (fun c ->
      let run j =
        with_jobs j (fun () ->
            let rng = Ser_rng.Rng.create 4 in
            ( (Probs.path_probabilities ~rng ~vectors:500 c).Probs.p,
              screen_counts ~seed:2 ~vectors:500 c ))
      in
      let p1, s1 = run 1 and p3, s3 = run 3 in
      bits_equal c.Circuit.name p1 p3;
      Alcotest.(check (array int)) "ODC screen counts" s1 s3)
    [ Ser_circuits.Iscas.load "c432"; Ser_circuits.Iscas.load ~seed:11 "c880" ]

let test_detection_counts_requires_gate () =
  let c = Ser_circuits.Iscas.c17 () in
  try
    ignore (Probs.detection_counts_for_vector c (Array.make 5 false) ~strike:0);
    Alcotest.fail "PI strike accepted"
  with Invalid_argument _ -> ()

let () =
  Alcotest.run "ser_logicsim"
    [
      ( "bitsim",
        [
          QCheck_alcotest.to_alcotest popcount_prop;
          Alcotest.test_case "mask_of" `Quick test_mask_of;
          QCheck_alcotest.to_alcotest eval_matches_bool_prop;
          Alcotest.test_case "ones_count" `Quick test_ones_count;
        ] );
      ( "signal probabilities",
        [
          Alcotest.test_case "tree exact" `Quick test_signal_probs_tree;
          Alcotest.test_case "xor family" `Quick test_signal_probs_xor;
          Alcotest.test_case "pi_prob" `Quick test_signal_probs_pi_prob;
          Alcotest.test_case "MC agrees" `Quick test_mc_close_to_analytic;
        ] );
      ( "sensitization",
        [ Alcotest.test_case "side values" `Quick test_side_sensitization ] );
      ( "path probabilities",
        [
          Alcotest.test_case "c17 vs exhaustive" `Slow test_pij_c17_exact;
          Alcotest.test_case "P_jj = 1" `Quick test_pjj_is_one;
          Alcotest.test_case "PI rows zero" `Quick test_pij_input_rows_zero;
          QCheck_alcotest.to_alcotest pij_brute_force_prop;
          QCheck_alcotest.to_alcotest analytic_exact_on_trees_prop;
          Alcotest.test_case "analytic close on c17" `Quick test_analytic_close_on_c17;
          QCheck_alcotest.to_alcotest analytic_oracle_prop;
          Alcotest.test_case "biased inputs" `Quick test_biased_inputs;
          Alcotest.test_case "parallel = sequential" `Quick test_parallel_identical;
          Alcotest.test_case "PI strike rejected" `Quick test_detection_counts_requires_gate;
        ] );
      ( "masking oracle",
        [
          QCheck_alcotest.to_alcotest oracle_prop;
          Alcotest.test_case "fixed circuits" `Quick test_oracle_fixed;
        ] );
    ]
