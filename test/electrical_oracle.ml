(* Reference electrical pass for the ASERTA kernels: the straightforward
   successor-walking WS table of Section 3.2 (unique successors, their
   sensitizations, the Eq-1 attenuation brackets recomputed per
   (gate, successor) edge and the Eq-2 weights per output), followed by
   per-output Lut.interpolate_1d for W_ij (Eqs 3-4), run sequentially in
   descending id order. Analysis.run_electrical's hoisted kernels must
   reproduce it bit for bit. *)

module Analysis = Aserta.Analysis
module Glitch = Aserta.Glitch
module Circuit = Ser_netlist.Circuit
module Probs = Ser_logicsim.Probs
module Library = Ser_cell.Library
module Assignment = Ser_sta.Assignment
module Timing = Ser_sta.Timing
module Floatx = Ser_util.Floatx

(* Unique successor ids of a node, first-seen order of the fanout pins. *)
let successors (c : Circuit.t) id =
  let out = ref [] in
  Array.iter
    (fun r -> if not (List.mem r !out) then out := r :: !out)
    (Circuit.node c id).Circuit.fanout;
  Array.of_list (List.rev !out)

let ws_table (config : Analysis.config) (masking : Analysis.masking) ~samples:ws
    ~po_pos ~delays ~tables (c : Circuit.t) id =
  let n_pos = Array.length c.Circuit.outputs in
  let n_samples = Array.length ws in
  let p = masking.Analysis.path_probs.Probs.p in
  let t = Array.make_matrix n_pos n_samples 0. in
  if po_pos.(id) >= 0 then
    (* step (ii): straight to the gate's own latch, no other output *)
    Array.blit ws 0 t.(po_pos.(id)) 0 n_samples
  else begin
    (* step (iii) *)
    let succs = successors c id in
    let sens =
      Array.map
        (fun s ->
          Probs.sensitization_to_driver c ~probs:masking.Analysis.probs ~gate:s
            ~driver:id)
        succs
    in
    for j = 0 to n_pos - 1 do
      let pij = p.(id).(j) in
      let denom =
        match config.Analysis.split with
        | Analysis.Naive -> 1.
        | Analysis.Normalized ->
          let acc = ref 0. in
          Array.iteri (fun si s -> acc := !acc +. (sens.(si) *. p.(s).(j))) succs;
          !acc
      in
      if pij > 0. && denom > 0. then
        Array.iteri
          (fun si s ->
            let psj = p.(s).(j) in
            let weight =
              match config.Analysis.split with
              | Analysis.Normalized -> sens.(si) *. pij /. denom
              | Analysis.Naive -> sens.(si) *. psj
            in
            if weight > 0. && psj > 0. then
              for k = 0 to n_samples - 1 do
                let wo = Glitch.propagate ~delay:delays.(s) ~width:ws.(k) in
                if wo > 0. then begin
                  let b = Floatx.binary_search_bracket ws wo in
                  let woc =
                    Floatx.clamp ~lo:ws.(0) ~hi:ws.(n_samples - 1) wo
                  in
                  let fr = Floatx.inv_lerp ws.(b) ws.(b + 1) woc in
                  let y0 = tables.(s).(j).(b) and y1 = tables.(s).(j).(b + 1) in
                  t.(j).(k) <- t.(j).(k) +. (weight *. (y0 +. (fr *. (y1 -. y0))))
                end
              done)
          succs
    done
  end;
  t

type result = {
  tables : float array array array;
  gen_width : float array;
  expected_width : float array array;
  unreliability : float array;
  total : float;
}

let run_electrical (config : Analysis.config) lib asg masking =
  let c = Assignment.circuit asg in
  let n = Circuit.node_count c in
  let n_pos = Array.length c.Circuit.outputs in
  let timing = Timing.analyze ~env:config.Analysis.env lib asg in
  let ws = Analysis.sample_widths config in
  let po_pos = Masking_oracle.is_po_of c in
  let tables = Array.make n [||] in
  for id = n - 1 downto 0 do
    if not (Circuit.is_input c id) then
      tables.(id) <-
        ws_table config masking ~samples:ws ~po_pos
          ~delays:timing.Timing.delays ~tables c id
  done;
  let gen_width = Array.make n 0. in
  let expected_width = Array.make n (Array.make n_pos 0.) in
  let unreliability = Array.make n 0. in
  for id = 0 to n - 1 do
    if not (Circuit.is_input c id) then begin
      let cell = Assignment.get asg id in
      let node_cap = timing.Timing.loads.(id) +. Library.output_cap lib cell in
      let width output_low =
        Library.generated_glitch_width lib cell ~node_cap
          ~charge:config.Analysis.charge ~output_low
      in
      let p1 = masking.Analysis.probs.(id) in
      let wi = ((1. -. p1) *. width true) +. (p1 *. width false) in
      let wij =
        Array.init n_pos (fun j ->
            if po_pos.(id) = j then wi
            else Ser_table.Lut.interpolate_1d ~xs:ws ~ys:tables.(id).(j) wi)
      in
      gen_width.(id) <- wi;
      expected_width.(id) <- wij;
      unreliability.(id) <- Library.area lib cell *. Floatx.sum wij
    end
  done;
  let total = ref 0. in
  Array.iter (fun u -> total := !total +. u) unreliability;
  { tables; gen_width; expected_width; unreliability; total = !total }
