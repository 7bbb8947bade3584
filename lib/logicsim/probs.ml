module Circuit = Ser_netlist.Circuit
module Gate = Ser_netlist.Gate

let signal_probabilities ?(pi_prob = 0.5) ?pi_probs (c : Circuit.t) =
  let p = Array.make (Circuit.node_count c) pi_prob in
  (match pi_probs with
  | Some ps ->
    if Array.length ps <> Array.length c.inputs then
      invalid_arg "Probs.signal_probabilities: pi_probs length mismatch";
    Array.iteri (fun pos id -> p.(id) <- ps.(pos)) c.inputs
  | None -> ());
  Array.iter
    (fun (nd : Circuit.node) ->
      if nd.kind <> Gate.Input then begin
        let pin k = p.(nd.fanin.(k)) in
        let n = Array.length nd.fanin in
        let prod_of f =
          let acc = ref 1. in
          for k = 0 to n - 1 do
            acc := !acc *. f (pin k)
          done;
          !acc
        in
        let v =
          match nd.kind with
          | Gate.Input -> assert false
          | Gate.Buf -> pin 0
          | Gate.Not -> 1. -. pin 0
          | Gate.And -> prod_of Fun.id
          | Gate.Nand -> 1. -. prod_of Fun.id
          | Gate.Or -> 1. -. prod_of (fun x -> 1. -. x)
          | Gate.Nor -> prod_of (fun x -> 1. -. x)
          | Gate.Xor | Gate.Xnor ->
            let acc = ref (pin 0) in
            for k = 1 to n - 1 do
              let q = pin k in
              acc := (!acc *. (1. -. q)) +. ((1. -. !acc) *. q)
            done;
            if nd.kind = Gate.Xor then !acc else 1. -. !acc
        in
        p.(nd.id) <- v
      end)
    c.nodes;
  p

(* Monte-Carlo estimates draw one independent RNG stream per batch of
   [Bitsim.bits_per_word] patterns ([Rng.stream base b] for batch [b]),
   so the patterns — and therefore the counts — are a pure function of
   the caller's generator state and the vector count, identical for any
   worker count or chunking. The caller's generator is advanced once
   (by the [Rng.split] that derives [base]). *)
let batch_count vectors = (vectors + Bitsim.bits_per_word - 1) / Bitsim.bits_per_word

let signal_probabilities_mc ?pi_probs ~rng ~vectors (c : Circuit.t) =
  let n = Circuit.node_count c in
  let base = Ser_rng.Rng.split rng in
  let counts =
    Ser_par.Par.parallel_reduce ~n:(batch_count vectors)
      ~init:(Array.make n 0)
      ~map:(fun ~lo ~hi ->
        let counts = Array.make n 0 in
        for b = lo to hi - 1 do
          let rng_b = Ser_rng.Rng.stream base b in
          let k = min (vectors - (b * Bitsim.bits_per_word)) Bitsim.bits_per_word in
          let batch = Bitsim.random_batch ?pi_probs rng_b c ~n_patterns:k in
          for id = 0 to n - 1 do
            counts.(id) <- counts.(id) + Bitsim.ones_count batch id
          done
        done;
        counts)
      ~combine:(fun a b ->
        Array.iteri (fun i v -> a.(i) <- a.(i) + v) b;
        a)
      ()
  in
  Array.map (fun k -> float_of_int k /. float_of_int vectors) counts

let side_sensitization (c : Circuit.t) ~probs ~gate ~pin =
  let nd = Circuit.node c gate in
  if nd.kind = Gate.Input then invalid_arg "Probs.side_sensitization: Input";
  let n = Array.length nd.fanin in
  if pin < 0 || pin >= n then invalid_arg "Probs.side_sensitization: bad pin";
  match Gate.sensitizing_side_value nd.kind with
  | None -> 1.
  | Some v ->
    let acc = ref 1. in
    for k = 0 to n - 1 do
      if k <> pin then begin
        let p = probs.(nd.fanin.(k)) in
        acc := !acc *. (if v then p else 1. -. p)
      end
    done;
    !acc

let sensitization_to_driver (c : Circuit.t) ~probs ~gate ~driver =
  let nd = Circuit.node c gate in
  let best = ref None in
  Array.iteri
    (fun pin f ->
      if f = driver then begin
        let s = side_sensitization c ~probs ~gate ~pin in
        match !best with
        | Some b when b >= s -> ()
        | Some _ | None -> best := Some s
      end)
    nd.fanin;
  match !best with Some s -> s | None -> raise Not_found

type path_probs = {
  vectors : int;
  p : float array array;
  flips : int;
}

(* Bit-parallel fault simulation with the {!Flipsim} kernel on the
   circuit's graph:
   per batch of patterns, flip each fanout-free-region root once, then
   trace the root and its region's members from the root's per-output
   difference words. *)
let path_probabilities ?pi_probs ?prune ~rng ~vectors (c : Circuit.t) =
  let n = Circuit.node_count c in
  let n_pos = Array.length c.outputs in
  (* Pruned sites (ODC-proven masked) keep all-zero detect rows, which
     is exactly what their exhaustive no-PO-difference witness
     guarantees simulation would produce. A pruned root is never
     flipped: its observation word is zero, so its whole region adds
     nothing. A pruned member still passes its word through to the
     members below it but adds nothing to its own row. Surviving rows
     are bit-identical to the unpruned run. *)
  let pruned =
    match prune with
    | None -> fun _ -> false
    | Some p ->
      if Array.length p <> n then
        invalid_arg "Probs.path_probabilities: prune length mismatch";
      fun i -> p.(i)
  in
  let g = Circuit.graph c in
  let roots =
    Array.of_seq
      (Seq.filter (fun r -> not (pruned r)) (Array.to_seq g.Circuit.Graph.roots))
  in
  (* A root's cost is its fanout cone plus its region, and cones are
     heavily skewed: roots near the primary inputs drag cones of
     thousands of gates while sinks touch a handful. Topological id
     order clusters the heavy roots into the same leading chunks, so
     the default split leaves one chunk several times the mean and a
     straggler tail stealing cannot break up. Dealing the roots
     round-robin across the chunks in descending cost order gives
     every chunk the same heavy-to-light profile. Root order is free
     to change: each root owns its region's detect rows and its
     patterns come from the index-keyed stream, so results stay
     bit-identical for any order, chunking and worker count. *)
  let n_roots = Array.length roots in
  let chunk = max 1 ((n_roots + 63) / 64) in
  if n_roots > 1 then begin
    (* Cone sizes by a walk over the distinct-fanout CSR; each root
       stamps the nodes it reaches with its own id, so one stamp array
       serves every root. *)
    let stamp = Array.make n (-1) and queue = Array.make n 0 in
    let cone_size r =
      let len = ref 0 and head = ref 0 in
      let visit v =
        if stamp.(v) <> r then begin
          stamp.(v) <- r;
          queue.(!len) <- v;
          incr len
        end
      in
      visit r;
      while !head < !len do
        let v = queue.(!head) in
        incr head;
        for q = g.fo_off.(v) to g.fo_off.(v + 1) - 1 do visit g.fo.(q) done
      done;
      !len
    in
    let region r = 1 + g.mem_off.(r + 1) - g.mem_off.(r) in
    let cost = Array.map (fun r -> (cone_size r + region r, r)) roots in
    Array.sort
      (fun (ca, a) (cb, b) -> match compare cb ca with 0 -> compare a b | r -> r)
      cost;
    let nchunks = (n_roots + chunk - 1) / chunk in
    let pos = ref 0 in
    for c = 0 to nchunks - 1 do
      let s = ref c in
      while !s < n_roots do
        roots.(!pos) <- snd cost.(!s);
        Stdlib.incr pos;
        s := !s + nchunks
      done
    done
  end;
  let detect = Array.make_matrix n n_pos 0 in
  let slots = Ser_par.Par.jobs () in
  let scratches = Array.init slots (fun _ -> Flipsim.scratch g) in
  let base = Ser_rng.Rng.split rng in
  let nbatches = batch_count vectors in
  for b = 0 to nbatches - 1 do
    let rng_b = Ser_rng.Rng.stream base b in
    let k = min (vectors - (b * Bitsim.bits_per_word)) Bitsim.bits_per_word in
    let mask = Bitsim.mask_of k in
    let good =
      (Bitsim.random_batch ?pi_probs rng_b c ~n_patterns:k).Bitsim.values
    in
    Ser_par.Par.parallel_chunks ~chunk ~n:n_roots (fun ~slot ~lo ~hi ->
        let ws = scratches.(min slot (slots - 1)) in
        for idx = lo to hi - 1 do
          let r = roots.(idx) in
          Flipsim.flip ws ~good ~mask r;
          let nh = Flipsim.hits ws in
          if nh > 0 then
            Flipsim.trace ws r (fun g w ->
                if not (pruned g) then begin
                  let row = detect.(g) in
                  for h = 0 to nh - 1 do
                    let pos = Flipsim.hit_pos ws h in
                    row.(pos) <-
                      row.(pos) + Bitsim.popcount (w land Flipsim.hit_diff ws h)
                  done
                end)
        done)
  done;
  let p =
    Array.map
      (fun row -> Array.map (fun d -> float_of_int d /. float_of_int vectors) row)
      detect
  in
  { vectors; p; flips = n_roots * nbatches }

let path_probabilities_analytic ?probs (c : Circuit.t) =
  let probs =
    match probs with Some p -> p | None -> signal_probabilities c
  in
  let n = Circuit.node_count c in
  let n_pos = Array.length c.outputs in
  let p = Array.make_matrix n n_pos 0. in
  let g = Circuit.graph c in
  let po_pos = c.po_pos in
  (* reverse topological: successors are ready before their drivers *)
  for id = n - 1 downto 0 do
    if not (Circuit.is_input c id) then begin
      if po_pos.(id) >= 0 then p.(id).(po_pos.(id)) <- 1.;
      for q = g.fo_off.(id) to g.fo_off.(id + 1) - 1 do
        let s = g.fo.(q) in
        let sens = sensitization_to_driver c ~probs ~gate:s ~driver:id in
        if sens > 0. then
          for j = 0 to n_pos - 1 do
            if p.(s).(j) > 0. && po_pos.(id) <> j then
              p.(id).(j) <-
                1. -. ((1. -. p.(id).(j)) *. (1. -. (sens *. p.(s).(j))))
          done
      done
    end
  done;
  { vectors = 0; p; flips = 0 }

let detection_counts_for_vector (c : Circuit.t) vector ~strike =
  if Circuit.is_input c strike then
    invalid_arg "Probs.detection_counts_for_vector: strike on a primary input";
  let good = Bitsim.eval_vector c vector in
  let faulty = Array.copy good in
  faulty.(strike) <- not good.(strike);
  let cone = Circuit.fanout_cone c strike in
  Array.iter
    (fun t ->
      if t <> strike then begin
        let nd = Circuit.node c t in
        if nd.kind <> Gate.Input then
          faulty.(t) <-
            Gate.eval_bool nd.kind (Array.map (fun f -> faulty.(f)) nd.fanin)
      end)
    cone;
  Array.map (fun po -> faulty.(po) <> good.(po)) c.outputs
