module Circuit = Ser_netlist.Circuit
module Gate = Ser_netlist.Gate
module L = Ser_cell.Library
module A = Ser_sta.Assignment
module T = Ser_sta.Timing
module Paths = Ser_sta.Paths

let inverter_chain n =
  let b = Circuit.Builder.create ~name:"chain" () in
  let i = Circuit.Builder.add_input b "in" in
  let prev = ref i in
  for k = 1 to n do
    prev := Circuit.Builder.add_gate b ~name:(Printf.sprintf "inv%d" k) Gate.Not [ !prev ]
  done;
  Circuit.Builder.set_output b !prev;
  Circuit.Builder.build_exn b

let diamond () =
  (* in -> a, b -> out : two parallel paths of different lengths *)
  let b = Circuit.Builder.create ~name:"diamond" () in
  let i = Circuit.Builder.add_input b "in" in
  let j = Circuit.Builder.add_input b "in2" in
  let a = Circuit.Builder.add_gate b ~name:"a" Gate.Not [ i ] in
  let a2 = Circuit.Builder.add_gate b ~name:"a2" Gate.Not [ a ] in
  let bb = Circuit.Builder.add_gate b ~name:"b" Gate.Not [ j ] in
  let o = Circuit.Builder.add_gate b ~name:"o" Gate.Nand [ a2; bb ] in
  Circuit.Builder.set_output b o;
  (Circuit.Builder.build_exn b, i, j, a, a2, bb, o)

(* ---------------- assignment ---------------- *)

let test_assignment_uniform () =
  let c = inverter_chain 3 in
  let lib = L.create () in
  let asg = A.uniform lib c in
  let cell = A.get asg 1 in
  Alcotest.(check bool) "nominal inverter" true
    (cell.Ser_device.Cell_params.kind = Gate.Not);
  Alcotest.(check bool) "PI has no cell" true
    (try ignore (A.get asg 0); false with Invalid_argument _ -> true)

let test_assignment_set_validation () =
  let c = inverter_chain 2 in
  let lib = L.create () in
  let asg = A.uniform lib c in
  (try
     A.set asg 1 (Ser_device.Cell_params.nominal Gate.Nand 2);
     Alcotest.fail "kind mismatch accepted"
   with Invalid_argument _ -> ());
  A.set asg 1 (Ser_device.Cell_params.v ~size:4. Gate.Not 1);
  Alcotest.(check (float 0.)) "set took" 4. (A.get asg 1).Ser_device.Cell_params.size

let test_assignment_copy_isolated () =
  let c = inverter_chain 2 in
  let lib = L.create () in
  let asg = A.uniform lib c in
  let cp = A.copy asg in
  A.set cp 1 (Ser_device.Cell_params.v ~size:8. Gate.Not 1);
  Alcotest.(check (float 0.)) "original untouched" 1.
    (A.get asg 1).Ser_device.Cell_params.size

let test_total_area () =
  let c = inverter_chain 4 in
  let lib = L.create () in
  let asg = A.uniform lib c in
  let unit = Ser_device.Gate_model.area (A.get asg 1) in
  Alcotest.(check (float 1e-9)) "4 inverters" (4. *. unit) (A.total_area lib asg)

(* ---------------- timing ---------------- *)

let test_chain_arrival () =
  let c = inverter_chain 5 in
  let lib = L.create () in
  let asg = A.uniform lib c in
  let t = T.analyze lib asg in
  (* arrival at the k-th inverter = sum of the first k delays *)
  let acc = ref 0. in
  for id = 1 to 5 do
    acc := !acc +. t.T.delays.(id);
    Alcotest.(check (float 1e-9)) (Printf.sprintf "arrival %d" id) !acc t.T.arrival.(id)
  done;
  Alcotest.(check (float 1e-9)) "critical = last arrival" t.T.arrival.(5)
    t.T.critical_delay

let test_loads () =
  let c, _, _, a, a2, bb, o = diamond () in
  ignore bb;
  let lib = L.create () in
  let asg = A.uniform lib c in
  let t = T.analyze ~env:{ T.po_cap = 2.5; pi_ramp = 10. } lib asg in
  (* gate a drives only a2 *)
  Alcotest.(check (float 1e-9)) "a load" (L.input_cap lib (A.get asg a2)) t.T.loads.(a);
  (* output gate carries the latch cap *)
  Alcotest.(check (float 1e-9)) "po load" 2.5 t.T.loads.(o)

(* Every node of a critical path has slack exactly 0. (the backward
   sweep snaps the subtraction residue), from a from-scratch analysis
   and from the incremental engine's timing after a move. *)
let check_zero_slack what asg t =
  Array.iter
    (fun id ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: critical node %d slack 0" what id)
        true
        (Int64.bits_of_float t.T.slack.(id) = 0L))
    (T.critical_path asg t)

let test_slack () =
  let c, _, _, _, _, bb, _ = diamond () in
  let lib = L.create () in
  let asg = A.uniform lib c in
  let t = T.analyze lib asg in
  (* the short branch (single inverter b) has positive slack; the long
     branch is critical *)
  Alcotest.(check bool) "short branch has slack" true (t.T.slack.(bb) > 1.);
  check_zero_slack "diamond" asg t;
  let config = { Aserta.Analysis.default_config with Aserta.Analysis.vectors = 64 } in
  List.iter
    (fun name ->
      let c = Ser_circuits.Iscas.load name in
      let asg = A.uniform lib c in
      check_zero_slack name asg (T.analyze lib asg);
      let e =
        Ser_incr.Incr.create ~config lib asg
          (Aserta.Analysis.compute_masking config c)
      in
      let g = (T.critical_path asg (Ser_incr.Incr.timing e)).(1) in
      let cand =
        Array.to_list (Circuit_gen.variants_of lib c g)
        |> List.find (fun p -> not (Ser_device.Cell_params.equal p (A.get asg g)))
      in
      A.set asg g cand;
      Ser_incr.Incr.set_cell e g cand;
      check_zero_slack (name ^ " moved") asg (T.analyze lib asg);
      check_zero_slack (name ^ " incremental") asg (Ser_incr.Incr.timing e))
    [ "c17"; "c432" ]

let test_critical_path_connected () =
  let c = Ser_circuits.Iscas.load "c432" in
  let lib = L.create () in
  let asg = A.uniform lib c in
  let t = T.analyze lib asg in
  let path = T.critical_path asg t in
  Alcotest.(check bool) "starts at PI" true (Circuit.is_input c path.(0));
  Alcotest.(check bool) "ends at PO" true
    (Circuit.is_output c path.(Array.length path - 1));
  for k = 0 to Array.length path - 2 do
    let nd = Circuit.node c path.(k + 1) in
    Alcotest.(check bool) "consecutive" true
      (Array.exists (fun f -> f = path.(k)) nd.Circuit.fanin)
  done

let test_ramp_propagation () =
  let c = inverter_chain 2 in
  let lib = L.create () in
  let asg = A.uniform lib c in
  let fast = T.analyze ~env:{ T.po_cap = 1.; pi_ramp = 2. } lib asg in
  let slow = T.analyze ~env:{ T.po_cap = 1.; pi_ramp = 100. } lib asg in
  Alcotest.(check bool) "slew slows the first gate" true
    (slow.T.delays.(1) > fast.T.delays.(1))

let test_energy () =
  let c = inverter_chain 3 in
  let lib = L.create () in
  let asg = A.uniform lib c in
  let e = T.total_energy lib asg in
  Alcotest.(check bool) "positive" true (e > 0.);
  let e_more = T.total_energy ~activity:0.9 lib asg in
  Alcotest.(check bool) "activity grows energy" true (e_more > e)

(* ---------------- paths ---------------- *)

(* exhaustive path enumeration for small circuits *)
let all_paths c =
  let rec walk id =
    let nd = Circuit.node c id in
    if nd.Circuit.kind = Gate.Input then [ [ id ] ]
    else
      Array.to_list nd.Circuit.fanin
      |> List.concat_map (fun f -> List.map (fun p -> id :: p) (walk f))
  in
  Array.to_list c.Circuit.outputs
  |> List.concat_map (fun po -> List.map List.rev (walk po))

let test_k_worst_exhaustive () =
  let c, _, _, _, _, _, _ = diamond () in
  let lib = L.create () in
  let asg = A.uniform lib c in
  let t = T.analyze lib asg in
  let every =
    all_paths c
    |> List.map (fun p ->
           let arr = Array.of_list p in
           (Paths.path_delay t arr, arr))
    |> List.sort (fun (a, _) (b, _) -> compare b a)
  in
  let got = Paths.k_worst_paths asg t ~k:10 in
  Alcotest.(check int) "found all paths" (List.length every) (Array.length got);
  List.iteri
    (fun i (d, _) ->
      Alcotest.(check (float 1e-9)) (Printf.sprintf "path %d delay" i) d
        (Paths.path_delay t got.(i)))
    every

let k_paths_sorted_prop =
  QCheck.Test.make ~name:"k worst paths are sorted and valid" ~count:10
    QCheck.small_nat
    (fun seed ->
      let p = Option.get (Ser_circuits.Iscas.profile "c432") in
      let c = Ser_circuits.Iscas.synthesize ~seed p in
      let lib = L.create () in
      let asg = A.uniform lib c in
      let t = T.analyze lib asg in
      let paths = Paths.k_worst_paths asg t ~k:16 in
      let delays = Array.map (Paths.path_delay t) paths in
      let sorted = ref true in
      for i = 0 to Array.length delays - 2 do
        if delays.(i) < delays.(i + 1) -. 1e-9 then sorted := false
      done;
      (* the worst path's delay must equal the critical delay *)
      !sorted
      && Array.length paths > 0
      && Float.abs (delays.(0) -. t.T.critical_delay) < 1e-6)

let arrival_edge_prop =
  QCheck.Test.make ~name:"arrival respects every edge" ~count:10
    QCheck.small_nat
    (fun seed ->
      let p = Option.get (Ser_circuits.Iscas.profile "c880") in
      let c = Ser_circuits.Iscas.synthesize ~seed p in
      let lib = L.create () in
      let asg = A.uniform lib c in
      let t = T.analyze lib asg in
      let ok = ref true in
      Array.iter
        (fun (nd : Circuit.node) ->
          if nd.Circuit.kind <> Gate.Input then
            Array.iter
              (fun f ->
                if t.T.arrival.(nd.Circuit.id) +. 1e-9
                   < t.T.arrival.(f) +. t.T.delays.(nd.Circuit.id)
                then ok := false)
              nd.Circuit.fanin)
        c.Circuit.nodes;
      !ok)

let slack_nonnegative_prop =
  QCheck.Test.make ~name:"no negative slack against own critical delay" ~count:10
    QCheck.small_nat
    (fun seed ->
      let p = Option.get (Ser_circuits.Iscas.profile "c432") in
      let c = Ser_circuits.Iscas.synthesize ~seed p in
      let lib = L.create () in
      let asg = A.uniform lib c in
      let t = T.analyze lib asg in
      Array.for_all (fun s -> s >= -1e-6) t.T.slack)

let test_topology_matrix () =
  let c = Ser_circuits.Iscas.load "c432" in
  let lib = L.create () in
  let asg = A.uniform lib c in
  let t = T.analyze lib asg in
  let paths = Paths.k_worst_paths asg t ~k:12 in
  let m, cols = Paths.topology_matrix asg paths in
  Alcotest.(check int) "rows = paths" (Array.length paths) m.Ser_linalg.Matrix.rows;
  (* T d reproduces the path delays *)
  let d = Paths.gate_delay_vector t cols in
  let pd = Ser_linalg.Matrix.mat_vec m d in
  Array.iteri
    (fun row p ->
      Alcotest.(check (float 1e-6)) (Printf.sprintf "path %d" row)
        (Paths.path_delay t p) pd.(row))
    paths;
  (* columns contain no primary inputs *)
  Array.iter
    (fun id -> Alcotest.(check bool) "no PI column" false (Circuit.is_input c id))
    cols

let () =
  Alcotest.run "ser_sta"
    [
      ( "assignment",
        [
          Alcotest.test_case "uniform" `Quick test_assignment_uniform;
          Alcotest.test_case "set validation" `Quick test_assignment_set_validation;
          Alcotest.test_case "copy isolation" `Quick test_assignment_copy_isolated;
          Alcotest.test_case "total area" `Quick test_total_area;
        ] );
      ( "timing",
        [
          Alcotest.test_case "chain arrivals" `Quick test_chain_arrival;
          Alcotest.test_case "loads" `Quick test_loads;
          Alcotest.test_case "slack" `Quick test_slack;
          Alcotest.test_case "critical path connected" `Quick test_critical_path_connected;
          Alcotest.test_case "ramp propagation" `Quick test_ramp_propagation;
          Alcotest.test_case "energy" `Quick test_energy;
        ] );
      ( "paths",
        [
          Alcotest.test_case "exhaustive diamond" `Quick test_k_worst_exhaustive;
          QCheck_alcotest.to_alcotest k_paths_sorted_prop;
          QCheck_alcotest.to_alcotest arrival_edge_prop;
          QCheck_alcotest.to_alcotest slack_nonnegative_prop;
          Alcotest.test_case "topology matrix" `Quick test_topology_matrix;
        ] );
    ]
