module Circuit = Ser_netlist.Circuit
module J = Ser_util.Json

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec loop i = i + m <= n && (String.sub s i m = sub || loop (i + 1)) in
  m = 0 || loop 0

let count_substring ~sub s =
  let m = String.length sub in
  let rec loop i acc =
    if i + m > String.length s then acc
    else if String.sub s i m = sub then loop (i + 1) (acc + 1)
    else loop (i + 1) acc
  in
  if m = 0 then 0 else loop 0 0

(* ---------------- json ---------------- *)

let test_json_scalars () =
  Alcotest.(check string) "null" "null" (J.to_string J.Null);
  Alcotest.(check string) "bool" "true" (J.to_string (J.Bool true));
  Alcotest.(check string) "int-like" "42" (J.to_string (J.Num 42.));
  Alcotest.(check string) "float" "1.5" (J.to_string (J.Num 1.5));
  Alcotest.(check string) "nan becomes null" "null" (J.to_string (J.Num Float.nan));
  Alcotest.(check string) "string" "\"hi\"" (J.to_string (J.Str "hi"))

let test_json_escaping () =
  Alcotest.(check string) "quotes" "\"a\\\"b\"" (J.to_string (J.Str "a\"b"));
  Alcotest.(check string) "newline" "\"a\\nb\"" (J.to_string (J.Str "a\nb"));
  Alcotest.(check string) "backslash" "\"a\\\\b\"" (J.to_string (J.Str "a\\b"))

let test_json_compound () =
  let v = J.Obj [ ("xs", J.List [ J.int 1; J.int 2 ]); ("e", J.Obj []) ] in
  let compact = J.to_string ~indent:false v in
  Alcotest.(check string) "compact" "{\"xs\": [1,2],\"e\": {}}" compact;
  let pretty = J.to_string v in
  Alcotest.(check bool) "pretty has newlines" true (contains ~sub:"\n" pretty);
  Alcotest.(check (list (pair string (of_pp (fun _ _ -> ())))))
    "field_opt none" [] (J.field_opt "x" None)

(* the renderer calls the float-format primitive directly; Printf is
   the reference for its bytes *)
let num_render_prop =
  QCheck.Test.make ~count:2000 ~name:"numbers render as Printf does"
    QCheck.(
      oneof
        [ float; map float_of_int int; map (fun x -> x /. 7.) (float_range (-1e6) 1e6) ])
    (fun x ->
      let expected =
        if not (Float.is_finite x) then "null"
        else if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
        else Printf.sprintf "%.6g" x
      in
      J.to_string (J.Num x) = expected)

(* ---------------- op documents ---------------- *)

module Request = Ser_cli.Request
module Handlers = Ser_cli.Handlers

let run_doc req =
  match Handlers.run req with
  | Ok doc -> doc
  | Error d -> Alcotest.failf "run: %s" (Ser_util.Diag.to_string d)

let keys = function
  | J.Obj fields -> List.map fst fields
  | _ -> Alcotest.fail "not an object"

let items k doc =
  match Option.bind (J.member k doc) J.to_list_opt with
  | Some l -> l
  | None -> Alcotest.failf "no list %S" k

let analyze_req backend top =
  {
    (Request.defaults Request.Analyze (Request.Spec "c17")) with
    Request.backend;
    vectors = 500;
    top;
  }

let test_analyze_document () =
  let positive backend =
    let req = analyze_req backend 0 in
    match Result.bind (Handlers.prepare req) (Handlers.analyze req) with
    | Ok a ->
      let _, u, _, _, _, _ = Handlers.backend_view a.Handlers.result in
      Array.fold_left (fun n v -> if v > 0. then n + 1 else n) 0 u
    | Error d -> Alcotest.failf "analyze: %s" (Ser_util.Diag.to_string d)
  in
  let docs =
    List.map
      (fun backend ->
        let n = positive backend in
        List.iter
          (fun top ->
            Alcotest.(check int)
              (Printf.sprintf "%s top %d rows" backend top)
              (min top n)
              (List.length (items "top" (run_doc (analyze_req backend top)))))
          [ 0; 2; 10 ];
        run_doc (analyze_req backend 10))
      [ "aserta"; "serpp" ]
  in
  match docs with
  | [ aserta; serpp ] ->
    Alcotest.(check (list string)) "one top-level schema" (keys aserta)
      (keys serpp);
    Alcotest.(check (list string)) "rows differ only by P_ij"
      (keys (List.hd (items "top" aserta)))
      (keys (List.hd (items "top" serpp)) @ [ "max_path_probability" ])
  | _ -> assert false

let test_optimize_document () =
  let req =
    {
      (Request.defaults Request.Optimize (Request.Spec "c17")) with
      Request.vectors = 200;
      evals = 4;
      greedy = 1;
    }
  in
  let doc = run_doc req in
  let expected =
    [
      "cmd"; "circuit"; "gates"; "vectors"; "baseline"; "optimized";
      "area_ratio"; "energy_ratio"; "delay_ratio"; "unreliability_reduction";
      "evals"; "degraded"; "cost_trace"; "knobs";
    ]
  in
  (* each quantity once: the metrics live in baseline/optimized, the
     knob counts under knobs, and no alias survives at the top *)
  Alcotest.(check (list string)) "top-level keys" expected (keys doc);
  let metrics = [ "unreliability"; "delay_ps"; "energy_fj"; "area" ] in
  List.iter
    (fun k ->
      Alcotest.(check (list string)) k metrics
        (keys (Option.get (J.member k doc))))
    [ "baseline"; "optimized" ];
  let knobs = keys (Option.get (J.member "knobs" doc)) in
  Alcotest.(check bool) "changed_gates under knobs" true
    (List.mem "changed_gates" knobs);
  Alcotest.(check int) "knob keys distinct" (List.length knobs)
    (List.length (List.sort_uniq compare knobs))

(* ---------------- dot ---------------- *)

let test_dot_structure () =
  let c = Ser_circuits.Iscas.c17 () in
  let dot = Ser_netlist.Dot_export.to_dot c in
  Alcotest.(check bool) "digraph" true (contains ~sub:"digraph \"c17\"" dot);
  Alcotest.(check int) "11 nodes" 11 (count_substring ~sub:"style=filled" dot);
  (* 6 gates x 2 fanins = 12 edges *)
  Alcotest.(check int) "12 edges" 12 (count_substring ~sub:" -> " dot);
  Alcotest.(check int) "5 input diamonds" 5 (count_substring ~sub:"diamond" dot);
  Alcotest.(check int) "2 output doublecircles" 2
    (count_substring ~sub:"doublecircle" dot)

let test_dot_annotation () =
  let c = Ser_circuits.Iscas.c17 () in
  let annotation =
    {
      Ser_netlist.Dot_export.label = (fun id -> if id = 5 then Some "hot" else None);
      heat = (fun id -> if id = 5 then 1. else 0.);
    }
  in
  let dot = Ser_netlist.Dot_export.to_dot ~annotation c in
  Alcotest.(check bool) "label present" true (contains ~sub:"hot" dot);
  Alcotest.(check bool) "full heat red" true (contains ~sub:"#ff0000" dot)

(* ---------------- spice deck ---------------- *)

let test_deck_structure () =
  let c = Ser_circuits.Iscas.c17 () in
  let lib = Ser_cell.Library.create () in
  let asg = Ser_sta.Assignment.uniform lib c in
  let deck =
    Ser_spice.Deck_export.strike_deck c
      ~assignment:(Ser_sta.Assignment.get asg)
      ~input_values:[| true; false; true; true; false |]
      ~strike:6
  in
  Alcotest.(check bool) ".tran present" true (contains ~sub:".tran" deck);
  Alcotest.(check bool) ".end present" true (contains ~sub:".end" deck);
  Alcotest.(check bool) "strike source" true (contains ~sub:"Istrike" deck);
  Alcotest.(check bool) "models" true (contains ~sub:".model mn_vt200 NMOS" deck);
  (* gate 6 ("11") reaches both outputs *)
  Alcotest.(check int) "two measures" 2 (count_substring ~sub:".measure" deck);
  Alcotest.(check bool) "subckt defined once" true
    (count_substring ~sub:".subckt nand2_x100" deck = 1)

let test_deck_polarity () =
  (* strike on a low node injects into it: current source 0 -> node *)
  let c = Ser_circuits.Iscas.c17 () in
  let lib = Ser_cell.Library.create () in
  let asg = Ser_sta.Assignment.uniform lib c in
  (* gate 5 ("10" = NAND(1,3)) with inputs all-ones is 0 *)
  let deck =
    Ser_spice.Deck_export.strike_deck c
      ~assignment:(Ser_sta.Assignment.get asg)
      ~input_values:[| true; true; true; true; true |]
      ~strike:5
  in
  Alcotest.(check bool) "injects into low node" true
    (contains ~sub:"Istrike 0 n_10" deck)

let test_cell_subckt () =
  let p = Ser_device.Cell_params.nominal Ser_netlist.Gate.Xor 2 in
  let s = Ser_spice.Deck_export.cell_subckt p in
  (* 4-NAND expansion: 4 nands x 4 transistors = 16 devices *)
  Alcotest.(check int) "16 devices" 16
    (count_substring ~sub:"\nM" ("\n" ^ s) - 0);
  Alcotest.(check bool) "subckt ends" true (contains ~sub:".ends" s)

(* ---------------- liberty ---------------- *)

let test_liberty () =
  let lib = Ser_cell.Library.create () in
  let cells =
    [
      Ser_device.Cell_params.nominal Ser_netlist.Gate.Nand 2;
      Ser_device.Cell_params.v ~size:4. Ser_netlist.Gate.Nand 2;
    ]
  in
  let text = Ser_cell.Liberty_export.library lib ~cells in
  Alcotest.(check bool) "library group" true (contains ~sub:"library (ser70)" text);
  Alcotest.(check int) "two cells" 2 (count_substring ~sub:"  cell (" text);
  Alcotest.(check bool) "function" true (contains ~sub:"!(A0 & A1)" text);
  Alcotest.(check bool) "nldm tables" true (contains ~sub:"cell_rise" text);
  Alcotest.(check bool) "glitch extension" true (contains ~sub:"ser_glitch_width" text);
  Alcotest.(check int) "balanced braces" (count_substring ~sub:"{" text)
    (count_substring ~sub:"}" text)

let () =
  Alcotest.run "exports"
    [
      ( "json",
        [
          Alcotest.test_case "scalars" `Quick test_json_scalars;
          Alcotest.test_case "escaping" `Quick test_json_escaping;
          Alcotest.test_case "compound" `Quick test_json_compound;
          QCheck_alcotest.to_alcotest num_render_prop;
          Alcotest.test_case "analyze document" `Quick test_analyze_document;
          Alcotest.test_case "optimize document" `Quick test_optimize_document;
        ] );
      ( "dot",
        [
          Alcotest.test_case "structure" `Quick test_dot_structure;
          Alcotest.test_case "annotation" `Quick test_dot_annotation;
        ] );
      ( "spice deck",
        [
          Alcotest.test_case "structure" `Quick test_deck_structure;
          Alcotest.test_case "strike polarity" `Quick test_deck_polarity;
          Alcotest.test_case "cell subckt" `Quick test_cell_subckt;
        ] );
      ("liberty", [ Alcotest.test_case "document" `Quick test_liberty ]);
    ]
