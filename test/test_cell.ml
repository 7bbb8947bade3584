module L = Ser_cell.Library
module P = Ser_device.Cell_params
module Gate = Ser_netlist.Gate

let test_default_axes () =
  let ax = L.default_axes in
  Alcotest.(check int) "sizes" 4 (List.length ax.L.sizes);
  Alcotest.(check int) "lengths (the paper's 5)" 5 (List.length ax.L.lengths);
  Alcotest.(check bool) "70nm present" true (List.mem 70. ax.L.lengths);
  Alcotest.(check bool) "300nm present" true (List.mem 300. ax.L.lengths)

let test_restrict () =
  let ax = L.restrict ~vdds:[ 0.8; 1.0 ] L.default_axes in
  Alcotest.(check int) "vdds replaced" 2 (List.length ax.L.vdds);
  Alcotest.(check int) "sizes kept" 4 (List.length ax.L.sizes)

let test_variants_count () =
  let lib = L.create () in
  let vs = L.variants lib Gate.Nand 2 in
  (* 4 sizes x 5 lengths x 3 vdds x 3 vths, minus vth >= vdd combos
     (none here since max vth 0.3 < min vdd 0.8) *)
  Alcotest.(check int) "full menu" (4 * 5 * 3 * 3) (List.length vs);
  List.iter
    (fun (p : P.t) ->
      Alcotest.(check bool) "kind" true (p.P.kind = Gate.Nand);
      Alcotest.(check bool) "fanin" true (p.P.fanin = 2))
    vs;
  try
    ignore (L.variants lib Gate.Input 0);
    Alcotest.fail "Input variants accepted"
  with Invalid_argument _ -> ()

let test_variants_unique () =
  let lib = L.create () in
  let vs = L.variants lib Gate.Not 1 in
  let n = List.length vs in
  let uniq = List.sort_uniq P.compare vs in
  Alcotest.(check int) "no duplicates" n (List.length uniq)

let test_nominal () =
  let lib = L.create () in
  let p = L.nominal lib Gate.Nand 2 in
  Alcotest.(check (float 0.)) "size" 1. p.P.size;
  Alcotest.(check (float 0.)) "length" 70. p.P.length;
  Alcotest.(check (float 0.)) "vdd" 1.0 p.P.vdd;
  Alcotest.(check (float 0.)) "vth" 0.2 p.P.vth

let test_geometry_passthrough () =
  let lib = L.create () in
  let p = L.nominal lib Gate.Not 1 in
  Alcotest.(check (float 1e-12)) "input cap" (Ser_device.Gate_model.input_cap p)
    (L.input_cap lib p);
  Alcotest.(check (float 1e-12)) "area" (Ser_device.Gate_model.area p)
    (L.area lib p);
  Alcotest.(check bool) "switching energy positive" true
    (L.switching_energy lib p ~cload:2. > 0.)

let test_analytic_backend_delay () =
  let lib = L.create ~backend:L.Analytic () in
  let p = L.nominal lib Gate.Not 1 in
  Alcotest.(check (float 1e-12)) "matches closed form"
    (Ser_device.Gate_model.delay p ~input_ramp:20. ~cload:2.)
    (L.delay lib p ~input_ramp:20. ~cload:2.)

let test_transient_backend_tables () =
  let lib = L.create ~backend:L.Transient () in
  let p = L.nominal lib Gate.Not 1 in
  Alcotest.(check int) "cold cache" 0 (L.warm_cache_size lib);
  let d1 = L.delay lib p ~input_ramp:20. ~cload:2. in
  Alcotest.(check int) "warm after first query" 1 (L.warm_cache_size lib);
  let d2 = L.delay lib p ~input_ramp:20. ~cload:2. in
  Alcotest.(check (float 1e-12)) "memoised" d1 d2;
  (* interpolated value close to a direct transient measurement *)
  let direct, _ = Ser_spice.Char.delay_and_ramp p ~cload:2. ~input_ramp:20. in
  Alcotest.(check bool)
    (Printf.sprintf "tables track transient (%.2f vs %.2f)" d1 direct)
    true
    (Float.abs (d1 -. direct) /. direct < 0.15);
  let w =
    L.generated_glitch_width lib p ~node_cap:2. ~charge:16. ~output_low:true
  in
  let direct_w =
    Ser_spice.Char.generated_glitch_width p
      ~cload:(2. -. Ser_device.Gate_model.output_cap p)
      ~charge:16. ~output_low:true
  in
  Alcotest.(check bool)
    (Printf.sprintf "glitch tables track transient (%.1f vs %.1f)" w direct_w)
    true
    (Float.abs (w -. direct_w) /. direct_w < 0.2)

let test_backends_correlate () =
  (* analytic and transient glitch widths agree on ordering across a
     spread of variants *)
  let a = L.create ~backend:L.Analytic () in
  let t = L.create ~backend:L.Transient () in
  let variants =
    [
      P.v ~size:1. Gate.Not 1;
      P.v ~size:4. Gate.Not 1;
      P.v ~length:150. Gate.Not 1;
      P.v ~length:300. Gate.Not 1;
      P.v ~vdd:0.8 Gate.Not 1;
      P.v ~vth:0.3 Gate.Not 1;
    ]
  in
  let wa =
    Array.of_list
      (List.map
         (fun p -> L.generated_glitch_width a p ~node_cap:2. ~charge:16. ~output_low:true)
         variants)
  in
  let wt =
    Array.of_list
      (List.map
         (fun p -> L.generated_glitch_width t p ~node_cap:2. ~charge:16. ~output_low:true)
         variants)
  in
  let r = Ser_linalg.Stats.spearman wa wt in
  Alcotest.(check bool) (Printf.sprintf "rank correlation %.2f" r) true (r > 0.9)

let test_empty_axis_rejected () =
  try
    ignore (L.create ~axes:(L.restrict ~vdds:[] L.default_axes) ());
    Alcotest.fail "empty axis accepted"
  with Invalid_argument _ -> ()

let test_vth_below_vdd_filter () =
  (* a vth equal to a vdd must be filtered out of that vdd's variants *)
  let lib =
    L.create ~axes:(L.restrict ~vdds:[ 0.3; 1.0 ] ~vths:[ 0.2; 0.3 ] L.default_axes) ()
  in
  let vs = L.variants lib Gate.Not 1 in
  List.iter
    (fun (p : P.t) ->
      Alcotest.(check bool) "vth < vdd" true (p.P.vth < p.P.vdd))
    vs

(* ---------------- compiled timing kernels ---------------- *)

module GM = Ser_device.Gate_model
module Mosfet = Ser_device.Mosfet

(* The per-call model walk the compiled kernel replaced, kept as the
   reference: it re-derives the stage list, the drive currents and the
   node capacitances on every query. *)
let reference_timing (p : P.t) ~input_ramp ~cload =
  let stage_list = GM.stages p in
  let n_stages = List.length stage_list in
  let stack_factor k = sqrt (float_of_int k) in
  let drive (s : GM.stage) ~down =
    if down then
      let w = p.P.size *. Mosfet.w_min *. stack_factor s.GM.n_stack in
      let wl = w /. p.P.length /. float_of_int s.GM.n_stack in
      Mosfet.saturation_current (Mosfet.nmos ~vth:p.P.vth) ~w_over_l:wl ~vgs:p.P.vdd
    else
      let w =
        p.P.size *. Mosfet.w_min *. Mosfet.pmos_width_ratio
        *. stack_factor s.GM.p_stack
      in
      let wl = w /. p.P.length /. float_of_int s.GM.p_stack in
      Mosfet.saturation_current (Mosfet.pmos ~vth:p.P.vth) ~w_over_l:wl ~vgs:p.P.vdd
  in
  let internal_cap =
    if n_stages > 1 then GM.input_cap { p with P.kind = Gate.Not; fanin = 1 } +. 0.1
    else 0.
  in
  let half_swing s ~c ~down =
    let i = drive s ~down in
    if i <= 0. then Float.max_float else c *. p.P.vdd /. 2. /. i
  in
  let rec loop acc_delay ramp idx = function
    | [] -> (acc_delay, ramp)
    | s :: rest ->
      let c =
        if idx = n_stages - 1 then cload +. GM.output_cap p else internal_cap +. 0.1
      in
      let t = Float.max (half_swing s ~c ~down:true) (half_swing s ~c ~down:false) in
      let d = 0.6 +. t +. (0.25 *. ramp) in
      loop (acc_delay +. d) (1.6 *. t) (idx + 1) rest
  in
  loop 0. input_ramp 0 stage_list

(* The uncompiled glitch closed form the compiled glitch kernel
   replaced: the restore drive is re-derived on every query (twice:
   once for the width, once inside the critical charge). *)
let reference_glitch (p : P.t) ~node_cap ~charge ~output_low =
  let _, tau_f = GM.collected_charge_tau in
  let restore () =
    GM.drive_current p (if output_low then GM.Pull_down else GM.Pull_up)
  in
  let i = restore () in
  if i <= 0. then Float.max_float
  else begin
    let qc = (node_cap *. p.P.vdd /. 2.) +. (restore () *. tau_f) in
    let excess = charge -. qc in
    if excess <= 0. then 0.
    else begin
      let it = i *. tau_f in
      let recovery = node_cap *. p.P.vdd /. 2. /. i in
      (excess /. (excess +. it) *. recovery) +. (tau_f *. log (1. +. (excess /. it)))
    end
  end

let bits = Int64.bits_of_float

let all_default_variants =
  lazy
    (let lib = L.create () in
     List.concat_map
       (fun (kind, fanins) ->
         List.concat_map (fun fanin -> L.variants lib kind fanin) fanins)
       [
         (Gate.Not, [ 1 ]); (Gate.Buf, [ 1 ]);
         (Gate.Nand, [ 2; 3; 4; 5; 8 ]); (Gate.Nor, [ 2; 3; 4; 5; 8 ]);
         (Gate.And, [ 2; 3; 4; 5; 8 ]); (Gate.Or, [ 2; 3; 4; 5; 8 ]);
         (Gate.Xor, [ 2; 3 ]); (Gate.Xnor, [ 2; 3 ]);
       ]
     |> Array.of_list)

(* loads from an open output to absurdly heavy ones *)
let load_gen =
  QCheck.Gen.(
    frequency
      [
        (1, return 0.);
        (6, float_range 0. 100.);
        (2, float_range 100. 1e6);
        (1, return 1e12);
      ])

(* node capacitances from a bare junction to heavy fan-out, and
   charges from well below any variant's critical charge to far above
   it *)
let strike_gen =
  QCheck.Gen.(
    pair (float_range 0.1 60.)
      (frequency
         [ (1, return 0.); (3, float_range 0. 5.); (6, float_range 0. 150.) ]))

let prop_kernel_matches_walk =
  QCheck.Test.make ~name:"kernel = per-call model walk" ~count:100
    QCheck.(
      make
        ~print:(fun ((r, c), (nc, q)) ->
          Printf.sprintf "ramp=%h cload=%h node_cap=%h charge=%h" r c nc q)
        Gen.(
          pair
            (pair (frequency [ (1, return 0.); (5, float_range 0. 400.) ]) load_gen)
            strike_gen))
    (fun ((input_ramp, cload), (node_cap, charge)) ->
      let lib = L.create () in
      let same a b = Int64.equal (bits a) (bits b) in
      Array.for_all
        (fun p ->
          let d_ref, r_ref = reference_timing p ~input_ramp ~cload in
          let k = L.kernel lib p in
          let out = [| 0.; 0. |] in
          L.kernel_timing k ~input_ramp ~cload out;
          let d = out.(0) and r = out.(1) in
          let d_lib = L.delay lib p ~input_ramp ~cload in
          let r_lib = L.output_ramp lib p ~input_ramp ~cload in
          let g = L.glitch_kernel lib p in
          let glitch_ok output_low =
            let w_ref = reference_glitch p ~node_cap ~charge ~output_low in
            same (L.glitch_width g ~node_cap ~charge ~output_low) w_ref
            && same
                 (L.generated_glitch_width lib p ~node_cap ~charge ~output_low)
                 w_ref
            && same
                 (GM.generated_glitch_width p ~node_cap ~charge ~output_low)
                 w_ref
          in
          same d d_ref && same r r_ref && same d_lib d_ref
          && same r_lib r_ref && glitch_ok true && glitch_ok false)
        (Lazy.force all_default_variants))

let test_transient_kernel () =
  let axes =
    L.restrict ~sizes:[ 1. ] ~lengths:[ 70. ] ~vdds:[ 1.0 ] ~vths:[ 0.2 ]
      L.default_axes
  in
  let lib = L.create ~backend:L.Transient ~axes () in
  List.iter
    (fun (kind, fanin) ->
      List.iter
        (fun p ->
          let k = L.kernel lib p in
          List.iter
            (fun (input_ramp, cload) ->
              let out = [| 0.; 0. |] in
              L.kernel_timing k ~input_ramp ~cload out;
              let d = out.(0) and r = out.(1) in
              let same a b = Int64.equal (bits a) (bits b) in
              Alcotest.(check bool)
                (Printf.sprintf "%s ramp=%g cload=%g" (P.to_string p) input_ramp
                   cload)
                true
                (same d (L.delay lib p ~input_ramp ~cload)
                && same r (L.output_ramp lib p ~input_ramp ~cload)))
            [ (2., 0.3); (20., 2.); (45., 7.5); (160., 30.); (500., 100.) ];
          let g = L.glitch_kernel lib p in
          List.iter
            (fun (node_cap, charge) ->
              List.iter
                (fun output_low ->
                  let same a b = Int64.equal (bits a) (bits b) in
                  Alcotest.(check bool)
                    (Printf.sprintf "%s node_cap=%g charge=%g low=%b"
                       (P.to_string p) node_cap charge output_low)
                    true
                    (same
                       (L.glitch_width g ~node_cap ~charge ~output_low)
                       (L.generated_glitch_width lib p ~node_cap ~charge
                          ~output_low)))
                [ true; false ])
            [ (0.3, 2.); (1.5, 5.); (4., 16.); (12., 40.); (50., 100.) ])
        (L.variants lib kind fanin))
    [ (Gate.Not, 1); (Gate.Nand, 2) ]

let () =
  Alcotest.run "ser_cell"
    [
      ( "axes",
        [
          Alcotest.test_case "defaults" `Quick test_default_axes;
          Alcotest.test_case "restrict" `Quick test_restrict;
          Alcotest.test_case "empty rejected" `Quick test_empty_axis_rejected;
          Alcotest.test_case "vth<vdd filter" `Quick test_vth_below_vdd_filter;
        ] );
      ( "variants",
        [
          Alcotest.test_case "count" `Quick test_variants_count;
          Alcotest.test_case "unique" `Quick test_variants_unique;
          Alcotest.test_case "nominal corner" `Quick test_nominal;
        ] );
      ( "characterisation",
        [
          Alcotest.test_case "geometry passthrough" `Quick test_geometry_passthrough;
          Alcotest.test_case "analytic backend" `Quick test_analytic_backend_delay;
          Alcotest.test_case "transient tables" `Slow test_transient_backend_tables;
          Alcotest.test_case "backend agreement" `Slow test_backends_correlate;
        ] );
      ( "kernel",
        [
          QCheck_alcotest.to_alcotest prop_kernel_matches_walk;
          Alcotest.test_case "transient kernel = tables" `Slow test_transient_kernel;
        ] );
    ]
