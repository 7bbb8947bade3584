module Graph = Ser_netlist.Circuit.Graph

(* ------------------------------ scratch ----------------------------- *)

type scratch = {
  t : Graph.t;
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

let scratch (t : Graph.t) =
  let n = Array.length t.kind in
  {
    t;
    good = [||];
    cur = Array.make n 0;
    stamp = Array.make n (-1);
    gen = 0;
    flipped = -1;
    bucket = Array.make n 0;
    cnt = Array.make (Array.length t.lvl_off) 0;
    pending = 0;
    undo = Array.make n 0;
    n_undo = 0;
    hit_pos = Array.make n 0;
    hit_diff = Array.make n 0;
    n_hits = 0;
    observed = 0;
    w = Array.make n 0;
  }

let hits ws = ws.n_hits
let hit_pos ws h = ws.hit_pos.(h)
let hit_diff ws h = ws.hit_diff.(h)
let observed ws = ws.observed

(* ------------------------------- flip ------------------------------- *)

(* The hot loops index only through offsets the graph was built with,
   so they skip the bounds checks (worth ~20% of the kernel's time). *)
external ( .!() ) : int array -> int -> int = "%array_unsafe_get"
external ( .!()<- ) : int array -> int -> int -> unit = "%array_unsafe_set"

(* The graph's kinds are [Gate.code]s: family [k lsr 1] (0 BUF/NOT,
   1 AND/NAND, 2 OR/NOR, 3 XOR/XNOR), inverting iff [k] is odd. It
   lives here, beside its hottest caller: the flip loop calling it in
   another module measured ~10% slower masking. *)
let eval_node (t : Graph.t) (words : int array) s =
  let fi = t.fi in
  let a = t.fi_off.!(s) and b = t.fi_off.!(s + 1) - 1 in
  let k = t.kind.!(s) in
  let acc = ref words.!(fi.!(a)) in
  (match k lsr 1 with
  | 1 -> for q = a + 1 to b do acc := !acc land words.!(fi.!(q)) done
  | 2 -> for q = a + 1 to b do acc := !acc lor words.!(fi.!(q)) done
  | 3 -> for q = a + 1 to b do acc := !acc lxor words.!(fi.!(q)) done
  | _ -> ());
  if k land 1 = 0 then !acc else lnot !acc

(* Node [s] now holds [v], which differs from its good value on some
   live pattern: record it for the undo pass and the output hits, and
   schedule its successors (each at most once per flip). *)
let changed ws ~mask s v =
  let t = ws.t in
  ws.cur.!(s) <- v;
  ws.undo.!(ws.n_undo) <- s;
  ws.n_undo <- ws.n_undo + 1;
  let p = t.po_pos.!(s) in
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
  let n = Array.length ws.cur in
  if i < 0 || i >= n then invalid_arg "Flipsim.flip: node id out of range";
  if ws.good != good then begin
    Array.blit good 0 ws.cur 0 n;
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
      let v = eval_node t ws.cur s in
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
   output of [s]: every other pin holds its non-controlling value.
   Families as in [eval_node]: 1 is AND/NAND, 2 OR/NOR. *)
let sens (t : Graph.t) (good : int array) s pin_at =
  let fam = t.kind.!(s) lsr 1 in
  if fam <> 1 && fam <> 2 then -1
  else begin
    let acc = ref (-1) in
    for q = t.fi_off.!(s) to t.fi_off.!(s + 1) - 1 do
      if q <> pin_at then begin
        let v = good.!(t.fi.!(q)) in
        acc := !acc land (if fam = 1 then v else lnot v)
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
