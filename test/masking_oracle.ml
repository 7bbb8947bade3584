(* Reference fault simulation for the masking kernel: flip every gate
   separately and walk its whole topologically ordered fanout cone,
   the straightforward per-gate simulation the compiled, FFR-traced
   kernel must reproduce bit for bit. Batches use the same
   index-keyed RNG streams as Probs.path_probabilities and the ODC
   screen, so counts are directly comparable. *)

module Bitsim = Ser_logicsim.Bitsim
module Circuit = Ser_netlist.Circuit
module Gate = Ser_netlist.Gate

let is_po_of (c : Circuit.t) =
  let is_po = Array.make (Circuit.node_count c) (-1) in
  Array.iteri (fun pos id -> is_po.(id) <- pos) c.Circuit.outputs;
  is_po

(* Invert gate [i] and re-evaluate [cone]; [on_diff t diff] sees every
   node whose masked word changed, [i] included. *)
let propagate_flip (c : Circuit.t) ~cone ~(good : int array) ~mask i ~on_diff =
  let faulty = Array.copy good in
  faulty.(i) <- lnot good.(i);
  Array.iter
    (fun t ->
      if t <> i then begin
        let nd = Circuit.node c t in
        let v k = faulty.(nd.fanin.(k)) in
        let fold op =
          let acc = ref (v 0) in
          for k = 1 to Array.length nd.fanin - 1 do
            acc := op !acc (v k)
          done;
          !acc
        in
        let w =
          match nd.kind with
          | Gate.Input -> good.(t)
          | Gate.Buf -> v 0
          | Gate.Not -> lnot (v 0)
          | Gate.And -> fold ( land )
          | Gate.Nand -> lnot (fold ( land ))
          | Gate.Or -> fold ( lor )
          | Gate.Nor -> lnot (fold ( lor ))
          | Gate.Xor -> fold ( lxor )
          | Gate.Xnor -> lnot (fold ( lxor ))
        in
        faulty.(t) <- w
      end;
      let diff = (faulty.(t) lxor good.(t)) land mask in
      if diff <> 0 then on_diff t diff)
    cone

(* OR over the primary outputs of the masked difference words. *)
let flip_observed_word c ~is_po ~good ~mask i =
  let acc = ref 0 in
  propagate_flip c ~cone:(Circuit.fanout_cone c i) ~good ~mask i
    ~on_diff:(fun t diff -> if is_po.(t) >= 0 then acc := !acc lor diff);
  !acc

let batches ?pi_probs ~base ~vectors c f =
  let nb = (vectors + Bitsim.bits_per_word - 1) / Bitsim.bits_per_word in
  for b = 0 to nb - 1 do
    let k = min (vectors - (b * Bitsim.bits_per_word)) Bitsim.bits_per_word in
    let rng_b = Ser_rng.Rng.stream base b in
    let batch = Bitsim.random_batch ?pi_probs rng_b c ~n_patterns:k in
    f ~good:batch.Bitsim.values ~mask:(Bitsim.mask_of k)
  done

(* Per-PO detect counts of every unpruned gate, as [P_ij] fractions. *)
let path_probabilities ?pi_probs ?prune ~rng ~vectors (c : Circuit.t) =
  let n = Circuit.node_count c in
  let is_po = is_po_of c in
  let pruned i = match prune with Some p -> p.(i) | None -> false in
  let detect = Array.make_matrix n (Array.length c.Circuit.outputs) 0 in
  let base = Ser_rng.Rng.split rng in
  batches ?pi_probs ~base ~vectors c (fun ~good ~mask ->
      for i = 0 to n - 1 do
        if (not (Circuit.is_input c i)) && not (pruned i) then
          propagate_flip c ~cone:(Circuit.fanout_cone c i) ~good ~mask i
            ~on_diff:(fun t diff ->
              let pos = is_po.(t) in
              if pos >= 0 then
                detect.(i).(pos) <- detect.(i).(pos) + Bitsim.popcount diff)
      done);
  Array.map
    (Array.map (fun d -> float_of_int d /. float_of_int vectors))
    detect

(* The ODC screen's any-PO detection counts per site. *)
let screen_counts ~seed ~vectors (c : Circuit.t) =
  let n = Circuit.node_count c in
  let is_po = is_po_of c in
  let counts = Array.make n 0 in
  let base = Ser_rng.Rng.split (Ser_rng.Rng.create seed) in
  batches ~base ~vectors c (fun ~good ~mask ->
      for i = 0 to n - 1 do
        if not (Circuit.is_input c i) then
          let w = flip_observed_word c ~is_po ~good ~mask i in
          counts.(i) <- counts.(i) + Bitsim.popcount w
      done);
  counts

(* Primary-input positions in the fanin closure of [i]'s fanout cone. *)
let support (c : Circuit.t) i =
  let seen = Array.make (Circuit.node_count c) false in
  Array.iter
    (fun t -> Array.iter (fun f -> seen.(f) <- true) (Circuit.fanin_cone c t))
    (Circuit.fanout_cone c i);
  List.filter (fun pos -> seen.(c.Circuit.inputs.(pos)))
    (List.init (Array.length c.Circuit.inputs) Fun.id)
  |> Array.of_list

(* Exhaustive any-PO detections of [i] over every assignment of its
   support, non-support inputs held at 0: (detected, patterns). *)
let prove (c : Circuit.t) i =
  let is_po = is_po_of c in
  let supp = support c i in
  let total = 1 lsl Array.length supp in
  let det = ref 0 in
  let pi_words = Array.make (Array.length c.Circuit.inputs) 0 in
  let p0 = ref 0 in
  while !p0 < total do
    let k = min (total - !p0) Bitsim.bits_per_word in
    Array.iteri
      (fun s pos ->
        let w = ref 0 in
        for j = 0 to k - 1 do
          if ((!p0 + j) lsr s) land 1 = 1 then w := !w lor (1 lsl j)
        done;
        pi_words.(pos) <- !w)
      supp;
    let good = (Bitsim.eval c ~pi_words ~n_patterns:k).Bitsim.values in
    let mask = Bitsim.mask_of k in
    det := !det + Bitsim.popcount (flip_observed_word c ~is_po ~good ~mask i);
    p0 := !p0 + k
  done;
  (!det, total)

(* Vectorless P_ij by backward propagation, the per-pin reference:
   walk each node's fanout pins, skip repeat successors with a
   [Hashtbl], and fold [1 - (1 - P_ij) (1 - S_is P_sj)] in that
   first-seen order. Probs.path_probabilities_analytic must reproduce
   it bit for bit. *)
let path_probabilities_analytic ~probs (c : Circuit.t) =
  let n = Circuit.node_count c in
  let n_pos = Array.length c.Circuit.outputs in
  let p = Array.make_matrix n n_pos 0. in
  let po_pos = is_po_of c in
  for id = n - 1 downto 0 do
    if not (Circuit.is_input c id) then begin
      if po_pos.(id) >= 0 then p.(id).(po_pos.(id)) <- 1.;
      let seen = Hashtbl.create 4 in
      Array.iter
        (fun s ->
          if not (Hashtbl.mem seen s) then begin
            Hashtbl.replace seen s ();
            let sens =
              Ser_logicsim.Probs.sensitization_to_driver c ~probs ~gate:s
                ~driver:id
            in
            if sens > 0. then
              for j = 0 to n_pos - 1 do
                if p.(s).(j) > 0. && po_pos.(id) <> j then
                  p.(id).(j) <-
                    1. -. ((1. -. p.(id).(j)) *. (1. -. (sens *. p.(s).(j))))
              done
          end)
        (Circuit.node c id).Circuit.fanout
    end
  done;
  p
