module Circuit = Ser_netlist.Circuit
module Gate = Ser_netlist.Gate

(* Gate kinds as small ints, so the hot loops dispatch on an int
   instead of a variant read through the node record. *)
let k_buf = 0
let k_not = 1
let k_and = 2
let k_nand = 3
let k_or = 4
let k_nor = 5
let k_xor = 6
let k_xnor = 7
let k_input = 8

let code_of = function
  | Gate.Buf -> k_buf
  | Gate.Not -> k_not
  | Gate.And -> k_and
  | Gate.Nand -> k_nand
  | Gate.Or -> k_or
  | Gate.Nor -> k_nor
  | Gate.Xor -> k_xor
  | Gate.Xnor -> k_xnor
  | Gate.Input -> k_input

(* Every array is annotated [int array]: an unannotated one compared
   or indexed through a polymorphic path halves the kernel's speed. *)
type t = {
  n : int;
  n_pos : int;
  kind : int array;
  fi_off : int array;  (* n + 1 offsets into [fi] *)
  fi : int array;  (* fanin ids, in pin order *)
  fo_off : int array;  (* n + 1 offsets into [fo] *)
  fo : int array;  (* distinct successor ids *)
  level : int array;  (* longest path from the inputs *)
  lvl_off : int array;  (* bucket offsets: nodes per level, prefix-summed *)
  is_po : int array;  (* output position, or -1 *)
  succ : int array;  (* FFR member: its one successor; -1 otherwise *)
  pin_at : int array;  (* FFR member: its position in [fi] of [succ] *)
  roots : int array;  (* ascending ids *)
  mem_off : int array;  (* n + 1 offsets into [mem], keyed by root id *)
  mem : int array;  (* each root's members, descending ids *)
}

let compile (c : Circuit.t) =
  let n = Circuit.node_count c in
  let nodes = c.Circuit.nodes in
  let kind =
    Array.map (fun (nd : Circuit.node) -> code_of nd.Circuit.kind) nodes
  in
  let csr (f : Circuit.node -> int array) =
    let off = Array.make (n + 1) 0 in
    for id = 0 to n - 1 do
      off.(id + 1) <- off.(id) + Array.length (f nodes.(id))
    done;
    let flat = Array.make off.(n) 0 in
    Array.iteri
      (fun id nd -> Array.blit (f nd) 0 flat off.(id) (Array.length (f nd)))
      nodes;
    (off, flat)
  in
  let fi_off, fi = csr (fun nd -> nd.Circuit.fanin) in
  let fo_off, fo =
    csr (fun nd ->
        Array.of_list (List.sort_uniq compare (Array.to_list nd.Circuit.fanout)))
  in
  let level = Circuit.levels_from_inputs c in
  let n_levels = Array.fold_left max 0 level + 1 in
  let lvl_off = Array.make (n_levels + 1) 0 in
  Array.iter (fun l -> lvl_off.(l + 1) <- lvl_off.(l + 1) + 1) level;
  for l = 1 to n_levels do
    lvl_off.(l) <- lvl_off.(l) + lvl_off.(l - 1)
  done;
  let is_po = Array.make n (-1) in
  Array.iteri (fun pos id -> is_po.(id) <- pos) c.Circuit.outputs;
  (* A non-input gate is a fanout-free-region member when it is not a
     primary output and drives exactly one pin; every other gate is an
     FFR root. Successors have larger ids, so one descending sweep
     resolves each member's root. *)
  let succ = Array.make n (-1) in
  let pin_at = Array.make n (-1) in
  let root_of = Array.make n (-1) in
  for id = n - 1 downto 0 do
    let nd = nodes.(id) in
    if kind.(id) <> k_input then
      if is_po.(id) < 0 && Array.length nd.Circuit.fanout = 1 then begin
        let s = nd.Circuit.fanout.(0) in
        let p = ref fi_off.(s) in
        while fi.(!p) <> id do
          incr p
        done;
        succ.(id) <- s;
        pin_at.(id) <- !p;
        root_of.(id) <- root_of.(s)
      end
      else root_of.(id) <- id
  done;
  let mem_off = Array.make (n + 1) 0 in
  for id = 0 to n - 1 do
    if succ.(id) >= 0 then
      mem_off.(root_of.(id) + 1) <- mem_off.(root_of.(id) + 1) + 1
  done;
  for id = 1 to n do
    mem_off.(id) <- mem_off.(id) + mem_off.(id - 1)
  done;
  let mem = Array.make mem_off.(n) 0 in
  let fill = Array.sub mem_off 0 n in
  for id = n - 1 downto 0 do
    if succ.(id) >= 0 then begin
      let r = root_of.(id) in
      mem.(fill.(r)) <- id;
      fill.(r) <- fill.(r) + 1
    end
  done;
  let roots =
    Array.of_list
      (List.filter (fun id -> root_of.(id) = id) (List.init n Fun.id))
  in
  {
    n;
    n_pos = Array.length c.Circuit.outputs;
    kind;
    fi_off;
    fi;
    fo_off;
    fo;
    level;
    lvl_off;
    is_po;
    succ;
    pin_at;
    roots;
    mem_off;
    mem;
  }

let roots t = t.roots
let ffr_size t r = 1 + t.mem_off.(r + 1) - t.mem_off.(r)

(* ------------------------------ scratch ----------------------------- *)

type scratch = {
  t : t;
  mutable good : int array;  (* the fault-free words [cur] was loaded from *)
  cur : int array;  (* = good, except at the nodes the current flip changed *)
  stamp : int array;  (* = gen once a node is scheduled in this flip *)
  mutable gen : int;
  mutable flipped : int;  (* the node the last flip inverted *)
  bucket : int array;  (* pending nodes, grouped by level *)
  cnt : int array;  (* pending nodes per level *)
  mutable pending : int;
  undo : int array;  (* nodes whose [cur] differs from [good] *)
  mutable n_undo : int;
  hit_pos : int array;  (* output positions the flip reached ... *)
  hit_diff : int array;  (* ... and their masked difference words *)
  mutable n_hits : int;
  mutable observed : int;  (* OR of [hit_diff] *)
  w : int array;  (* FFR sensitization words, see [trace] *)
}

let scratch t =
  {
    t;
    good = [||];
    cur = Array.make t.n 0;
    stamp = Array.make t.n (-1);
    gen = 0;
    flipped = -1;
    bucket = Array.make t.n 0;
    cnt = Array.make (Array.length t.lvl_off) 0;
    pending = 0;
    undo = Array.make t.n 0;
    n_undo = 0;
    hit_pos = Array.make t.n_pos 0;
    hit_diff = Array.make t.n_pos 0;
    n_hits = 0;
    observed = 0;
    w = Array.make t.n 0;
  }

let hits ws = ws.n_hits
let hit_pos ws h = ws.hit_pos.(h)
let hit_diff ws h = ws.hit_diff.(h)
let observed ws = ws.observed

(* ------------------------------- flip ------------------------------- *)

(* The hot loops index only through offsets [compile] built, so they
   skip the bounds checks (worth ~20% of the kernel's time). *)
external ( .!() ) : int array -> int -> int = "%array_unsafe_get"
external ( .!()<- ) : int array -> int -> int -> unit = "%array_unsafe_set"

let eval t (cur : int array) s =
  let fi = t.fi in
  let a = t.fi_off.!(s) and b = t.fi_off.!(s + 1) - 1 in
  let k = t.kind.!(s) in
  if k <= k_not then
    let v = cur.!(fi.!(a)) in
    if k = k_buf then v else lnot v
  else if k <= k_nand then begin
    let acc = ref cur.!(fi.!(a)) in
    for q = a + 1 to b do
      acc := !acc land cur.!(fi.!(q))
    done;
    if k = k_and then !acc else lnot !acc
  end
  else if k <= k_nor then begin
    let acc = ref cur.!(fi.!(a)) in
    for q = a + 1 to b do
      acc := !acc lor cur.!(fi.!(q))
    done;
    if k = k_or then !acc else lnot !acc
  end
  else begin
    let acc = ref cur.!(fi.!(a)) in
    for q = a + 1 to b do
      acc := !acc lxor cur.!(fi.!(q))
    done;
    if k = k_xor then !acc else lnot !acc
  end

(* Node [s] now holds [v], which differs from its good value on some
   live pattern: record it for the undo pass and the output hits, and
   schedule its successors (each at most once per flip). *)
let changed ws ~mask s v =
  let t = ws.t in
  ws.cur.!(s) <- v;
  ws.undo.!(ws.n_undo) <- s;
  ws.n_undo <- ws.n_undo + 1;
  let p = t.is_po.!(s) in
  if p >= 0 then begin
    let d = (v lxor ws.good.!(s)) land mask in
    ws.hit_pos.!(ws.n_hits) <- p;
    ws.hit_diff.!(ws.n_hits) <- d;
    ws.n_hits <- ws.n_hits + 1;
    ws.observed <- ws.observed lor d
  end;
  let g = ws.gen and stamp = ws.stamp and cnt = ws.cnt in
  for q = t.fo_off.!(s) to t.fo_off.!(s + 1) - 1 do
    let r = t.fo.!(q) in
    if stamp.!(r) <> g then begin
      stamp.!(r) <- g;
      let l = t.level.!(r) in
      ws.bucket.!(t.lvl_off.!(l) + cnt.!(l)) <- r;
      cnt.!(l) <- cnt.!(l) + 1;
      ws.pending <- ws.pending + 1
    end
  done

let flip ws ~(good : int array) ~mask i =
  let t = ws.t in
  if i < 0 || i >= t.n then invalid_arg "Flipsim.flip: node id out of range";
  if ws.good != good then begin
    Array.blit good 0 ws.cur 0 t.n;
    ws.good <- good
  end;
  ws.gen <- ws.gen + 1;
  ws.flipped <- i;
  ws.n_undo <- 0;
  ws.n_hits <- 0;
  ws.observed <- 0;
  ws.pending <- 0;
  changed ws ~mask i (lnot good.!(i));
  (* Levels strictly increase along every edge, so evaluating one
     level only schedules deeper ones: a level's bucket is complete
     when the sweep reaches it. *)
  let l = ref (t.level.!(i) + 1) in
  while ws.pending > 0 do
    let lv = !l in
    let base = t.lvl_off.!(lv) and k = ws.cnt.!(lv) in
    for q = base to base + k - 1 do
      let s = ws.bucket.!(q) in
      let v = eval t ws.cur s in
      if (v lxor good.!(s)) land mask <> 0 then changed ws ~mask s v
    done;
    ws.cnt.!(lv) <- 0;
    ws.pending <- ws.pending - k;
    l := lv + 1
  done;
  for u = 0 to ws.n_undo - 1 do
    let s = ws.undo.!(u) in
    ws.cur.!(s) <- good.!(s)
  done

(* ------------------------------- trace ------------------------------ *)

(* Patterns under which a change on pin [pin_at] of [s] reaches the
   output of [s]: every other pin holds its non-controlling value. *)
let sens t (good : int array) s pin_at =
  let k = t.kind.!(s) in
  if k < k_and || k > k_nor then -1
  else begin
    let acc = ref (-1) in
    for q = t.fi_off.!(s) to t.fi_off.!(s + 1) - 1 do
      if q <> pin_at then begin
        let v = good.!(t.fi.!(q)) in
        acc := !acc land (if k <= k_nand then v else lnot v)
      end
    done;
    !acc
  end

let trace ws r f =
  let t = ws.t and good = ws.good in
  if r <> ws.flipped || t.succ.!(r) >= 0 then
    invalid_arg "Flipsim.trace: not the root the last flip inverted";
  let w = ws.w in
  w.!(r) <- ws.observed;
  if ws.observed <> 0 then f r ws.observed;
  for q = t.mem_off.!(r) to t.mem_off.!(r + 1) - 1 do
    let g = t.mem.!(q) in
    let s = t.succ.!(g) in
    let w_s = w.!(s) in
    let wg = if w_s = 0 then 0 else w_s land sens t good s t.pin_at.!(g) in
    w.!(g) <- wg;
    if wg <> 0 then f g wg
  done
