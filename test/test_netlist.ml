module Gate = Ser_netlist.Gate
module Circuit = Ser_netlist.Circuit
module Bench = Ser_netlist.Bench_format

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec loop i = i + m <= n && (String.sub s i m = sub || loop (i + 1)) in
  m = 0 || loop 0

(* ------------------------- gates ------------------------- *)

let test_gate_names () =
  List.iter
    (fun k ->
      Alcotest.(check (option bool))
        (Gate.to_string k) (Some true)
        (Option.map (fun k' -> k' = k) (Gate.of_string (Gate.to_string k))))
    Gate.all;
  Alcotest.(check bool) "INV alias" true (Gate.of_string "inv" = Some Gate.Not);
  Alcotest.(check bool) "BUFF alias" true (Gate.of_string "BUFF" = Some Gate.Buf);
  Alcotest.(check bool) "unknown" true (Gate.of_string "FOO" = None)

let truth_table kind =
  (* exhaustive truth table over 2 inputs *)
  List.map
    (fun (a, b) -> Gate.eval_bool kind [| a; b |])
    [ (false, false); (false, true); (true, false); (true, true) ]

let test_truth_tables () =
  Alcotest.(check (list bool)) "AND" [ false; false; false; true ] (truth_table Gate.And);
  Alcotest.(check (list bool)) "NAND" [ true; true; true; false ] (truth_table Gate.Nand);
  Alcotest.(check (list bool)) "OR" [ false; true; true; true ] (truth_table Gate.Or);
  Alcotest.(check (list bool)) "NOR" [ true; false; false; false ] (truth_table Gate.Nor);
  Alcotest.(check (list bool)) "XOR" [ false; true; true; false ] (truth_table Gate.Xor);
  Alcotest.(check (list bool)) "XNOR" [ true; false; false; true ] (truth_table Gate.Xnor);
  Alcotest.(check bool) "NOT" false (Gate.eval_bool Gate.Not [| true |]);
  Alcotest.(check bool) "BUF" true (Gate.eval_bool Gate.Buf [| true |])

let test_three_input () =
  Alcotest.(check bool) "AND3" true (Gate.eval_bool Gate.And [| true; true; true |]);
  Alcotest.(check bool) "XOR3 parity" true
    (Gate.eval_bool Gate.Xor [| true; true; true |]);
  Alcotest.(check bool) "XNOR3" false
    (Gate.eval_bool Gate.Xnor [| true; true; true |])

let words_match_bools_prop =
  let kinds = [| Gate.Buf; Gate.Not; Gate.And; Gate.Nand; Gate.Or; Gate.Nor; Gate.Xor; Gate.Xnor |] in
  QCheck.Test.make ~name:"eval_words agrees with eval_bool bitwise" ~count:300
    QCheck.(triple (int_range 0 7) (int_range 1 4) small_nat)
    (fun (ki, arity, seed) ->
      let kind = kinds.(ki) in
      let arity = max (Gate.min_fanin kind) (min arity (Gate.max_fanin kind)) in
      let rng = Ser_rng.Rng.create seed in
      let words =
        Array.init arity (fun _ ->
            Int64.to_int (Int64.logand (Ser_rng.Rng.bits64 rng) 0x3FFFFFFFFFFFFFFFL))
      in
      let w = Gate.eval_words kind words in
      let ok = ref true in
      for bit = 0 to 61 do
        let bools = Array.map (fun x -> (x lsr bit) land 1 = 1) words in
        let expect = Gate.eval_bool kind bools in
        if (w lsr bit) land 1 = 1 <> expect then ok := false
      done;
      !ok)

let test_controlling () =
  Alcotest.(check bool) "AND ctrl" true (Gate.controlling_value Gate.And = Some false);
  Alcotest.(check bool) "NOR ctrl" true (Gate.controlling_value Gate.Nor = Some true);
  Alcotest.(check bool) "XOR none" true (Gate.controlling_value Gate.Xor = None);
  Alcotest.(check bool) "NAND side" true
    (Gate.sensitizing_side_value Gate.Nand = Some true);
  Alcotest.(check bool) "OR side" true
    (Gate.sensitizing_side_value Gate.Or = Some false)

let test_arity_errors () =
  Alcotest.(check bool) "inverting" true (Gate.inverting Gate.Nand);
  Alcotest.(check bool) "non-inverting" false (Gate.inverting Gate.Or);
  (try
     ignore (Gate.eval_bool Gate.And [| true |]);
     Alcotest.fail "AND1 accepted"
   with Invalid_argument _ -> ());
  try
    ignore (Gate.eval_bool Gate.Not [| true; false |]);
    Alcotest.fail "NOT2 accepted"
  with Invalid_argument _ -> ()

(* ------------------------- builder ------------------------- *)

let small_circuit () =
  let b = Circuit.Builder.create ~name:"t" () in
  let a = Circuit.Builder.add_input b "a" in
  let c = Circuit.Builder.add_input b "c" in
  let g1 = Circuit.Builder.add_gate b ~name:"g1" Gate.And [ a; c ] in
  let g2 = Circuit.Builder.add_gate b ~name:"g2" Gate.Not [ g1 ] in
  Circuit.Builder.set_output b g2;
  (Circuit.Builder.build_exn b, a, c, g1, g2)

let test_builder_basic () =
  let c, a, _, g1, g2 = small_circuit () in
  Alcotest.(check int) "nodes" 4 (Circuit.node_count c);
  Alcotest.(check int) "gates" 2 (Circuit.gate_count c);
  Alcotest.(check bool) "a is input" true (Circuit.is_input c a);
  Alcotest.(check bool) "g2 is output" true (Circuit.is_output c g2);
  Alcotest.(check bool) "g1 not output" false (Circuit.is_output c g1);
  let nd = Circuit.node c g1 in
  Alcotest.(check int) "fanin count" 2 (Array.length nd.Circuit.fanin);
  Alcotest.(check int) "fanout count" 1 (Array.length nd.Circuit.fanout);
  Alcotest.(check (option int)) "find g1" (Some g1) (Circuit.find_by_name c "g1");
  Alcotest.(check (option int)) "output index" (Some 0) (Circuit.output_index c g2);
  Alcotest.(check (option int)) "non-output" None (Circuit.output_index c g1)

let test_builder_errors () =
  let b = Circuit.Builder.create () in
  let a = Circuit.Builder.add_input b "a" in
  (try
     ignore (Circuit.Builder.add_input b "a");
     Alcotest.fail "duplicate input name accepted"
   with Invalid_argument _ -> ());
  (try
     ignore (Circuit.Builder.add_gate b Gate.Not [ 99 ]);
     Alcotest.fail "unknown fanin accepted"
   with Invalid_argument _ -> ());
  (try
     ignore (Circuit.Builder.add_gate b Gate.Input [ a ]);
     Alcotest.fail "Input kind accepted"
   with Invalid_argument _ -> ());
  (try
     ignore (Circuit.Builder.add_gate b Gate.Xor [ a; a ]);
     Alcotest.fail "XOR duplicate pins accepted"
   with Invalid_argument _ -> ());
  try
    ignore (Circuit.Builder.add_gate b Gate.And [ a ]);
    Alcotest.fail "AND1 accepted"
  with Invalid_argument _ -> ()

let test_build_failures () =
  let b = Circuit.Builder.create () in
  (match Circuit.Builder.build b with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "empty circuit accepted");
  let a = Circuit.Builder.add_input b "a" in
  let g = Circuit.Builder.add_gate b Gate.Not [ a ] in
  (match Circuit.Builder.build b with
  | Error _ -> () (* no outputs *)
  | Ok _ -> Alcotest.fail "no-output circuit accepted");
  let _dangling = Circuit.Builder.add_gate b Gate.Not [ a ] in
  Circuit.Builder.set_output b g;
  match Circuit.Builder.build b with
  | Error msg ->
    Alcotest.(check bool) "mentions dangling" true
      (contains ~sub:"dangling" msg)
  | Ok _ -> Alcotest.fail "dangling accepted"

let test_build_trimmed () =
  let b = Circuit.Builder.create () in
  let a = Circuit.Builder.add_input b "a" in
  let g = Circuit.Builder.add_gate b ~name:"keep" Gate.Not [ a ] in
  let _d = Circuit.Builder.add_gate b ~name:"drop" Gate.Not [ a ] in
  Circuit.Builder.set_output b g;
  match Circuit.Builder.build_trimmed b with
  | Error e -> Alcotest.fail e
  | Ok c ->
    Alcotest.(check int) "trimmed to 1 gate" 1 (Circuit.gate_count c);
    Alcotest.(check (option int)) "kept gate present" (Some 1)
      (Circuit.find_by_name c "keep");
    Alcotest.(check (option int)) "dropped gate gone" None
      (Circuit.find_by_name c "drop")

let test_levels_and_cones () =
  let c, a, b_in, g1, g2 = small_circuit () in
  let lv = Circuit.levels_from_inputs c in
  Alcotest.(check int) "input level" 0 lv.(a);
  Alcotest.(check int) "g1 level" 1 lv.(g1);
  Alcotest.(check int) "g2 level" 2 lv.(g2);
  Alcotest.(check int) "depth" 2 (Circuit.depth c);
  let lo = Circuit.levels_to_outputs c in
  Alcotest.(check int) "g2 to out" 0 lo.(g2);
  Alcotest.(check int) "g1 to out" 1 lo.(g1);
  Alcotest.(check int) "a to out" 2 lo.(a);
  Alcotest.(check (list int)) "fanout cone of a" [ a; g1; g2 ]
    (Array.to_list (Circuit.fanout_cone c a));
  Alcotest.(check (list int)) "fanin cone of g2" [ a; b_in; g1; g2 ]
    (Array.to_list (Circuit.fanin_cone c g2));
  Alcotest.(check (list int)) "reachable outputs" [ 0 ]
    (Array.to_list (Circuit.reachable_outputs c g1))

(* The circuit graph against its definitions, on one circuit. *)
let check_graph c =
  let g = Circuit.graph c in
  let n = Circuit.node_count c in
  let slice off flat id = Array.sub flat off.(id) (off.(id + 1) - off.(id)) in
  let fail fmt = QCheck.Test.fail_reportf fmt in
  let lv = Circuit.levels_from_inputs c in
  Array.iter
    (fun (nd : Circuit.node) ->
      let id = nd.Circuit.id in
      if g.Circuit.Graph.kind.(id) <> Gate.code nd.Circuit.kind then
        fail "kind code of %d" id;
      if slice g.fi_off g.fi id <> nd.Circuit.fanin then fail "fanin of %d" id;
      if
        Array.to_list (slice g.fo_off g.fo id)
        <> List.sort_uniq compare (Array.to_list nd.Circuit.fanout)
      then fail "distinct fanout of %d" id;
      if Circuit.Graph.successors g id <> slice g.fo_off g.fo id then
        fail "successors of %d" id;
      if g.level.(id) <> lv.(id) then fail "level of %d" id;
      (* outputs, by a linear scan *)
      let scan = ref None in
      Array.iteri (fun pos o -> if o = id then scan := Some pos) c.Circuit.outputs;
      if Circuit.output_index c id <> !scan then fail "output_index of %d" id;
      if Circuit.is_output c id <> (!scan <> None) then fail "is_output of %d" id;
      if g.po_pos.(id) <> Option.value ~default:(-1) !scan then
        fail "po_pos of %d" id)
    c.Circuit.nodes;
  (* level buckets: lvl_off counts the nodes below each level *)
  Array.iteri
    (fun l off ->
      let below = Array.fold_left (fun a x -> if x < l then a + 1 else a) 0 lv in
      if off <> below then fail "lvl_off.(%d)" l)
    g.lvl_off;
  (* FFR partition: every gate is a root or a member of exactly one
     root, members hang off their one successor's pin *)
  let owner = Array.make n (-1) in
  Array.iter
    (fun r ->
      if owner.(r) >= 0 || g.succ.(r) >= 0 then fail "root %d" r;
      owner.(r) <- r;
      let ms = slice g.mem_off g.mem r in
      if Array.to_list ms <> List.sort (fun a b -> compare b a) (Array.to_list ms)
      then fail "members of %d not descending" r;
      Array.iter
        (fun m ->
          if owner.(m) >= 0 then fail "member %d twice" m;
          owner.(m) <- r;
          let nd = Circuit.node c m in
          if
            Circuit.is_output c m
            || Array.length nd.Circuit.fanout <> 1
            || g.succ.(m) <> nd.Circuit.fanout.(0)
            || g.pin_at.(m) < g.fi_off.(g.succ.(m))
            || g.pin_at.(m) >= g.fi_off.(g.succ.(m) + 1)
            || g.fi.(g.pin_at.(m)) <> m
          then fail "member %d" m;
          let rec root_of v = if g.succ.(v) < 0 then v else root_of g.succ.(v) in
          if root_of m <> r then fail "member %d under %d" m r)
        ms)
    g.roots;
  Array.iter
    (fun (nd : Circuit.node) ->
      let gate = nd.Circuit.kind <> Gate.Input in
      if gate <> (owner.(nd.Circuit.id) >= 0) then fail "gate %d" nd.Circuit.id;
      let member =
        gate && (not (Circuit.is_output c nd.Circuit.id))
        && Array.length nd.Circuit.fanout = 1
      in
      if gate && member = Array.mem nd.Circuit.id g.roots then
        fail "root/member status of %d" nd.Circuit.id)
    c.Circuit.nodes;
  if
    Array.fold_left
      (fun a r -> a + 1 + g.mem_off.(r + 1) - g.mem_off.(r))
      0 g.roots
    <> Circuit.gate_count c
  then fail "FFR sizes do not sum to the gate count";
  if Circuit.graph c != g then fail "second call built a new graph"

(* [c]'s nodes replayed through a builder, plus [extra] dangling gates
   that [build_trimmed] must delete. Without extras the replay goes
   through [build], which rejects dead primary inputs: those become
   outputs too. *)
let rebuild ?(extra = 0) c =
  let b = Circuit.Builder.create ~name:c.Circuit.name () in
  Array.iter
    (fun (nd : Circuit.node) ->
      if nd.Circuit.kind = Gate.Input then
        ignore (Circuit.Builder.add_input b nd.Circuit.name)
      else
        ignore
          (Circuit.Builder.add_gate b ~name:nd.Circuit.name nd.Circuit.kind
             (Array.to_list nd.Circuit.fanin)))
    c.Circuit.nodes;
  for k = 1 to extra do
    let n = Circuit.Builder.node_count b in
    ignore (Circuit.Builder.add_gate b Gate.Nand [ k mod n; (7 * k) mod n ])
  done;
  Array.iter (Circuit.Builder.set_output b) c.Circuit.outputs;
  if extra > 0 then Circuit.Builder.build_trimmed b
  else begin
    Array.iter
      (fun i ->
        if Array.length (Circuit.node c i).Circuit.fanout = 0 then
          Circuit.Builder.set_output b i)
      c.Circuit.inputs;
    Circuit.Builder.build b
  end

let graph_prop =
  QCheck.Test.make ~name:"circuit graph matches its definitions" ~count:40
    (QCheck.set_shrink QCheck.Shrink.nil Circuit_gen.arb) (fun (seed, extra, n_gates, depth) ->
      let c = Circuit_gen.circuit ~seed ~n_gates ~depth in
      check_graph c;
      List.iter
        (fun extra ->
          match rebuild ~extra c with
          | Ok c' ->
            if Circuit.gate_count c' <> Circuit.gate_count c then
              QCheck.Test.fail_reportf "rebuild kept %d gates"
                (Circuit.gate_count c');
            check_graph c'
          | Error e -> QCheck.Test.fail_reportf "rebuild: %s" e)
        [ 0; extra ];
      (* a first use from two domains at once *)
      match rebuild c with
      | Error e -> QCheck.Test.fail_reportf "rebuild: %s" e
      | Ok fresh ->
        let d = Domain.spawn (fun () -> Circuit.graph fresh) in
        let mine = Circuit.graph fresh in
        let theirs = Domain.join d in
        if mine != theirs || Circuit.graph fresh != mine then
          QCheck.Test.fail_reportf "two first uses yielded different graphs";
        check_graph fresh;
        true)

let test_stats () =
  let c, _, _, _, _ = small_circuit () in
  let s = Circuit.stats c in
  Alcotest.(check int) "inputs" 2 s.Circuit.n_inputs;
  Alcotest.(check int) "outputs" 1 s.Circuit.n_outputs;
  Alcotest.(check int) "gates" 2 s.Circuit.n_gates;
  Alcotest.(check int) "depth" 2 s.Circuit.depth;
  Alcotest.(check int) "max fanin" 2 s.Circuit.max_fanin

(* ------------------------- bench format ------------------------- *)

let sample_bench = {|
# a comment
INPUT(a)
INPUT(b)
OUTPUT(y)
y = NAND(n1, b)
n1 = NOT(a)
|}

let test_parse_forward_refs () =
  match Bench.parse_string sample_bench with
  | Error e -> Alcotest.fail (Ser_util.Diag.to_string e)
  | Ok c ->
    Alcotest.(check int) "gates" 2 (Circuit.gate_count c);
    Alcotest.(check int) "outputs" 1 (Array.length c.Circuit.outputs);
    (* forward reference resolved: n1 defined after use *)
    let y = Option.get (Circuit.find_by_name c "y") in
    Alcotest.(check bool) "y is output" true (Circuit.is_output c y)

let test_parse_errors () =
  let check_err ?line text frag =
    match Bench.parse_string text with
    | Ok _ -> Alcotest.fail ("accepted: " ^ frag)
    | Error d ->
      let msg = Ser_util.Diag.to_string d in
      Alcotest.(check bool)
        (Printf.sprintf "error mentions %S in %S" frag msg)
        true
        (contains ~sub:frag msg);
      (* every parse failure must be located on a real line *)
      let reported = Ser_util.Diag.context_value d "line" in
      Alcotest.(check bool)
        (Printf.sprintf "line context present in %S" msg)
        true (reported <> None);
      (match line with
      | Some expected ->
        Alcotest.(check (option string))
          (Printf.sprintf "line number in %S" msg)
          (Some (string_of_int expected))
          reported
      | None -> ())
  in
  check_err ~line:3 "INPUT(a)\nOUTPUT(y)\ny = FROB(a)\n" "FROB";
  check_err ~line:3 "INPUT(a)\nOUTPUT(y)\ny = NOT(zzz)\n" "zzz";
  check_err "INPUT(a)\nOUTPUT(y)\ny = NOT(x)\nx = NOT(y)\n" "cycle";
  check_err ~line:2 "INPUT(a)\nINPUT(a)\nOUTPUT(y)\ny = NOT(a)\n" "duplicate";
  check_err ~line:3 "INPUT(a)\nOUTPUT(y)\ny = NOT(a" ")";
  (* arity violations are parse errors with a line, not Invalid_argument *)
  check_err ~line:3 "INPUT(a)\nOUTPUT(y)\ny = NOT(a, a)\n" "NOT";
  check_err ~line:2 "INPUT(a)\nOUTPUT(y)\n" "undefined";
  check_err ~line:4 "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\nz = NOT(a)\n" "dangling"

(* every file in the malformed-input corpus must yield a located Diag error —
   never an exception, a hang, or silent acceptance *)
let test_corpus_malformed () =
  (* dune runtest runs with cwd = test/; direct execution may not *)
  let dir =
    if Sys.file_exists "corpus" then "corpus" else "test/corpus"
  in
  let files =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".bench")
    |> List.sort compare
  in
  Alcotest.(check bool) "corpus is non-empty" true (files <> []);
  List.iter
    (fun f ->
      let path = Filename.concat dir f in
      match Bench.parse_file path with
      | Ok _ -> Alcotest.fail (Printf.sprintf "corpus file accepted: %s" f)
      | Error d ->
        let msg = Ser_util.Diag.to_string d in
        Alcotest.(check bool)
          (Printf.sprintf "%s: line context in %S" f msg)
          true
          (Ser_util.Diag.context_value d "line" <> None))
    files

let test_oversized_line () =
  let big = String.make 70_000 'a' in
  let text = Printf.sprintf "INPUT(a)\nOUTPUT(y)\ny = NOT(%s)\n" big in
  match Bench.parse_string text with
  | Ok _ -> Alcotest.fail "accepted oversized line"
  | Error d ->
    let msg = Ser_util.Diag.to_string d in
    Alcotest.(check bool) ("mentions limit: " ^ msg) true (contains ~sub:"exceeds" msg)

(* a 10k-deep inverter chain must parse without Stack_overflow: the topo sort
   is iterative, so depth is bounded by heap, not the OS stack *)
let test_deep_chain () =
  let n = 10_000 in
  let buf = Buffer.create (n * 16) in
  Buffer.add_string buf "INPUT(n0)\n";
  Buffer.add_string buf (Printf.sprintf "OUTPUT(n%d)\n" n);
  for i = 1 to n do
    Buffer.add_string buf (Printf.sprintf "n%d = NOT(n%d)\n" i (i - 1))
  done;
  match Bench.parse_string (Buffer.contents buf) with
  | Error e -> Alcotest.fail (Ser_util.Diag.to_string e)
  | Ok c -> Alcotest.(check int) "gates" n (Circuit.gate_count c)

(* a long cycle must be reported as a cycle, not blow the stack *)
let test_deep_cycle () =
  let n = 5_000 in
  let buf = Buffer.create (n * 16) in
  Buffer.add_string buf "INPUT(a)\nOUTPUT(y)\n";
  Buffer.add_string buf (Printf.sprintf "y = AND(a, n0)\n");
  Buffer.add_string buf (Printf.sprintf "n0 = NOT(n%d)\n" (n - 1));
  for i = 1 to n - 1 do
    Buffer.add_string buf (Printf.sprintf "n%d = NOT(n%d)\n" i (i - 1))
  done;
  match Bench.parse_string (Buffer.contents buf) with
  | Ok _ -> Alcotest.fail "accepted deep cycle"
  | Error d ->
    let msg = Ser_util.Diag.to_string d in
    Alcotest.(check bool) ("mentions cycle: " ^ msg) true (contains ~sub:"cycle" msg)

let test_single_input_normalisation () =
  match Bench.parse_string "INPUT(a)\nOUTPUT(y)\ny = AND(a)\n" with
  | Error e -> Alcotest.fail (Ser_util.Diag.to_string e)
  | Ok c ->
    let y = Option.get (Circuit.find_by_name c "y") in
    Alcotest.(check bool) "AND1 becomes BUF" true
      ((Circuit.node c y).Circuit.kind = Gate.Buf)

let test_roundtrip_c17 () =
  let c = Ser_circuits.Iscas.c17 () in
  let text = Bench.to_string c in
  match Bench.parse_string text with
  | Error e -> Alcotest.fail (Ser_util.Diag.to_string e)
  | Ok c' ->
    Alcotest.(check int) "gates" (Circuit.gate_count c) (Circuit.gate_count c');
    Alcotest.(check int) "outputs" 2 (Array.length c'.Circuit.outputs);
    (* functional equivalence over all 32 input vectors *)
    for code = 0 to 31 do
      let vec = Array.init 5 (fun i -> (code lsr i) land 1 = 1) in
      let v1 = Ser_logicsim.Bitsim.eval_vector c vec in
      let v2 = Ser_logicsim.Bitsim.eval_vector c' vec in
      Array.iteri
        (fun pos o ->
          let o' = c'.Circuit.outputs.(pos) in
          Alcotest.(check bool) "same output" v1.(o) v2.(o'))
        c.Circuit.outputs
    done

let roundtrip_prop =
  QCheck.Test.make ~name:"bench round-trip preserves structure" ~count:30
    QCheck.(small_nat)
    (fun seed ->
      let p = Option.get (Ser_circuits.Iscas.profile "c432") in
      let c = Ser_circuits.Iscas.synthesize ~seed p in
      let text = Bench.to_string c in
      match Bench.parse_string text with
      | Error _ -> false
      | Ok c' ->
        Circuit.gate_count c = Circuit.gate_count c'
        && Array.length c.Circuit.outputs = Array.length c'.Circuit.outputs
        && Circuit.depth c = Circuit.depth c')

(* The reader must be total: any byte string returns Ok or a located
   Error, never an exception. *)
let parser_total_prop =
  QCheck.Test.make ~name:"bench parser is total on arbitrary strings"
    ~count:500
    QCheck.(string_gen_of_size (Gen.int_bound 200) Gen.printable)
    (fun text ->
      match Bench.parse_string text with
      | Ok _ -> true
      | Error d -> Ser_util.Diag.context_value d "line" <> None
      | exception e ->
        QCheck.Test.fail_reportf "parser raised %s" (Printexc.to_string e))

(* ... including strings biased towards statement-like fragments, which
   reach deeper into the builder than uniform noise does *)
let parser_total_structured_prop =
  let fragment =
    QCheck.Gen.oneofl
      [ "INPUT(a)"; "OUTPUT(y)"; "y = NAND(a, b)"; "y = NOT(a"; "= AND(a)";
        "x = XOR(x, x)"; "OUTPUT("; "INPUT(a, b)"; "y = FROB(a)"; "# c";
        "y = NAND(a)"; "a = NOT(y)"; "y = AND()"; "INPUT(y)"; "((((" ]
  in
  let gen =
    QCheck.Gen.(list_size (int_bound 12) fragment >|= String.concat "\n")
  in
  QCheck.Test.make ~name:"bench parser is total on statement soup" ~count:500
    (QCheck.make gen)
    (fun text ->
      match Bench.parse_string text with
      | Ok _ | Error _ -> true
      | exception e ->
        QCheck.Test.fail_reportf "parser raised %s" (Printexc.to_string e))

(* ------------------------- verilog format ------------------------- *)

module Verilog = Ser_netlist.Verilog_format

let sample_verilog = {|
// structural sample
module top (a, b, c, y, z);
  input a, b, c;
  output y, z;
  wire w1, w2; /* comment */
  nand u1 (w1, a, b);
  xor (w2, w1, c);
  not (y, w2);
  assign z = w1;
endmodule
|}

let test_verilog_parse () =
  match Verilog.parse_string sample_verilog with
  | Error e -> Alcotest.fail (Ser_util.Diag.to_string e)
  | Ok c ->
    Alcotest.(check int) "gates (assign -> BUF)" 4 (Circuit.gate_count c);
    Alcotest.(check int) "inputs" 3 (Array.length c.Circuit.inputs);
    Alcotest.(check int) "outputs" 2 (Array.length c.Circuit.outputs);
    let z = Option.get (Circuit.find_by_name c "z") in
    Alcotest.(check bool) "alias is BUF" true ((Circuit.node c z).Circuit.kind = Gate.Buf)

let test_verilog_semantics () =
  let c = Result.get_ok (Verilog.parse_string sample_verilog) in
  (* y = !( (a nand b) xor c ), z = a nand b *)
  for code = 0 to 7 do
    let a = code land 1 = 1 and b = code land 2 = 2 and cc = code land 4 = 4 in
    let values = Ser_logicsim.Bitsim.eval_vector c [| a; b; cc |] in
    let w1 = not (a && b) in
    let y = Option.get (Circuit.find_by_name c "y") in
    let z = Option.get (Circuit.find_by_name c "z") in
    Alcotest.(check bool) "y" (not (w1 <> cc)) values.(y);
    Alcotest.(check bool) "z" w1 values.(z)
  done

let test_verilog_roundtrip () =
  let c = Ser_circuits.Iscas.load "c432" in
  let text = Verilog.to_string c in
  match Verilog.parse_string text with
  | Error e -> Alcotest.fail (Ser_util.Diag.to_string e)
  | Ok c' ->
    Alcotest.(check int) "gates" (Circuit.gate_count c) (Circuit.gate_count c');
    Alcotest.(check int) "depth" (Circuit.depth c) (Circuit.depth c');
    (* functional equivalence on random vectors *)
    let rng = Ser_rng.Rng.create 9 in
    for _ = 1 to 10 do
      let vec = Array.map (fun _ -> Ser_rng.Rng.bool rng) c.Circuit.inputs in
      let v1 = Ser_logicsim.Bitsim.eval_vector c vec in
      let v2 = Ser_logicsim.Bitsim.eval_vector c' vec in
      Array.iteri
        (fun pos o ->
          Alcotest.(check bool) "same function" v1.(o)
            v2.(c'.Circuit.outputs.(pos)))
        c.Circuit.outputs
    done

let test_verilog_identifier_sanitisation () =
  (* numeric ISCAS names must come out as legal identifiers *)
  let c = Ser_circuits.Iscas.c17 () in
  let text = Verilog.to_string c in
  Alcotest.(check bool) "no bare numeric ports" false (contains ~sub:"(1," text);
  Alcotest.(check bool) "prefixed instead" true (contains ~sub:"n22" text);
  match Verilog.parse_string text with
  | Error e -> Alcotest.fail (Ser_util.Diag.to_string e)
  | Ok c' -> Alcotest.(check int) "parses back" 6 (Circuit.gate_count c')

let test_verilog_errors () =
  let check_err text frag =
    match Verilog.parse_string text with
    | Ok _ -> Alcotest.fail ("accepted: " ^ frag)
    | Error d ->
      let msg = Ser_util.Diag.to_string d in
      Alcotest.(check bool)
        (Printf.sprintf "error %S mentions %S" msg frag)
        true (contains ~sub:frag msg)
  in
  check_err "module m (a); input a; output y; always @(a) y = a; endmodule" "always";
  check_err "module m (a, y); input a; output y; not (y, zz); endmodule" "zz";
  check_err "module m (a, y); input a; output y; not (y, a); not (y, a); endmodule"
    "driven twice";
  check_err
    "module m (a, y); input a; output y; wire w; not (y, w); not (w, y); endmodule"
    "cycle";
  check_err "module m (a, y); input a; output y; not (y, a);" "endmodule"

let () =
  Alcotest.run "ser_netlist"
    [
      ( "gate",
        [
          Alcotest.test_case "names" `Quick test_gate_names;
          Alcotest.test_case "truth tables" `Quick test_truth_tables;
          Alcotest.test_case "3-input" `Quick test_three_input;
          QCheck_alcotest.to_alcotest words_match_bools_prop;
          Alcotest.test_case "controlling values" `Quick test_controlling;
          Alcotest.test_case "arity errors" `Quick test_arity_errors;
        ] );
      ( "builder",
        [
          Alcotest.test_case "basic" `Quick test_builder_basic;
          Alcotest.test_case "errors" `Quick test_builder_errors;
          Alcotest.test_case "build failures" `Quick test_build_failures;
          Alcotest.test_case "build_trimmed" `Quick test_build_trimmed;
          Alcotest.test_case "levels and cones" `Quick test_levels_and_cones;
          QCheck_alcotest.to_alcotest graph_prop;
          Alcotest.test_case "stats" `Quick test_stats;
        ] );
      ( "bench format",
        [
          Alcotest.test_case "forward refs" `Quick test_parse_forward_refs;
          Alcotest.test_case "parse errors" `Quick test_parse_errors;
          Alcotest.test_case "malformed corpus" `Quick test_corpus_malformed;
          Alcotest.test_case "oversized line" `Quick test_oversized_line;
          Alcotest.test_case "deep chain (iterative topo)" `Quick test_deep_chain;
          Alcotest.test_case "deep cycle" `Quick test_deep_cycle;
          Alcotest.test_case "1-input normalisation" `Quick test_single_input_normalisation;
          Alcotest.test_case "c17 round trip" `Quick test_roundtrip_c17;
          QCheck_alcotest.to_alcotest roundtrip_prop;
          QCheck_alcotest.to_alcotest parser_total_prop;
          QCheck_alcotest.to_alcotest parser_total_structured_prop;
        ] );
      ( "verilog format",
        [
          Alcotest.test_case "parse" `Quick test_verilog_parse;
          Alcotest.test_case "semantics" `Quick test_verilog_semantics;
          Alcotest.test_case "round trip" `Quick test_verilog_roundtrip;
          Alcotest.test_case "identifier sanitisation" `Quick
            test_verilog_identifier_sanitisation;
          Alcotest.test_case "errors" `Quick test_verilog_errors;
        ] );
    ]
