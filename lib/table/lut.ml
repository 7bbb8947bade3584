type t = {
  axes : float array array;
  values : float array;
  strides : int array; (* strides.(d) = product of axis lengths after d *)
}

let check_axis axis =
  let n = Array.length axis in
  if n = 0 then invalid_arg "Lut.create: empty axis";
  for i = 0 to n - 2 do
    if axis.(i) >= axis.(i + 1) then
      invalid_arg "Lut.create: axis not strictly increasing"
  done

let compute_strides axes =
  let d = Array.length axes in
  let strides = Array.make d 1 in
  for i = d - 2 downto 0 do
    strides.(i) <- strides.(i + 1) * Array.length axes.(i + 1)
  done;
  strides

let create ~axes ~values =
  Array.iter check_axis axes;
  let total = Array.fold_left (fun acc a -> acc * Array.length a) 1 axes in
  if total <> Array.length values then
    invalid_arg "Lut.create: value count does not match grid size";
  { axes = Array.map Array.copy axes; values = Array.copy values; strides = compute_strides axes }

let build ~axes ~f =
  Array.iter check_axis axes;
  let d = Array.length axes in
  let total = Array.fold_left (fun acc a -> acc * Array.length a) 1 axes in
  let values = Array.make total 0. in
  let point = Array.make d 0. in
  let idx = Array.make d 0 in
  for flat = 0 to total - 1 do
    (* decode flat index into per-axis indices (last axis fastest) *)
    let rem = ref flat in
    for dim = d - 1 downto 0 do
      let len = Array.length axes.(dim) in
      idx.(dim) <- !rem mod len;
      rem := !rem / len;
      point.(dim) <- axes.(dim).(idx.(dim))
    done;
    values.(flat) <- f point
  done;
  { axes = Array.map Array.copy axes; values; strides = compute_strides axes }

let dims t = Array.length t.axes
let axes t = Array.map Array.copy t.axes

let grid_value t idx =
  if Array.length idx <> dims t then invalid_arg "Lut.grid_value: arity mismatch";
  let flat = ref 0 in
  Array.iteri
    (fun d i ->
      if i < 0 || i >= Array.length t.axes.(d) then
        invalid_arg "Lut.grid_value: index out of range";
      flat := !flat + (i * t.strides.(d)))
    idx;
  t.values.(!flat)

(* Multilinear interpolation: locate the bracketing cell on each axis,
   then blend the 2^d corner values. Axes of length 1 contribute a fixed
   index with weight 0. *)
let eval t q =
  let d = dims t in
  if Array.length q <> d then invalid_arg "Lut.eval: arity mismatch";
  let lo_idx = Array.make d 0 in
  let frac = Array.make d 0. in
  for dim = 0 to d - 1 do
    let axis = t.axes.(dim) in
    let n = Array.length axis in
    if n = 1 then begin
      lo_idx.(dim) <- 0;
      frac.(dim) <- 0.
    end
    else begin
      let i = Ser_util.Floatx.binary_search_bracket axis q.(dim) in
      lo_idx.(dim) <- i;
      let x = Ser_util.Floatx.clamp ~lo:axis.(0) ~hi:axis.(n - 1) q.(dim) in
      frac.(dim) <- Ser_util.Floatx.inv_lerp axis.(i) axis.(i + 1) x
    end
  done;
  (* iterate over the 2^d corners *)
  let acc = ref 0. in
  let corners = 1 lsl d in
  for corner = 0 to corners - 1 do
    let weight = ref 1. in
    let flat = ref 0 in
    for dim = 0 to d - 1 do
      let hi = corner land (1 lsl dim) <> 0 in
      let axis_len = Array.length t.axes.(dim) in
      let i =
        if hi then
          if axis_len = 1 then 0 else lo_idx.(dim) + 1
        else lo_idx.(dim)
      in
      let w = if hi then frac.(dim) else 1. -. frac.(dim) in
      weight := !weight *. w;
      flat := !flat + (i * t.strides.(dim))
    done;
    if !weight <> 0. then acc := !acc +. (!weight *. t.values.(!flat))
  done;
  !acc

let eval1 t x =
  if dims t <> 1 then invalid_arg "Lut.eval1: not a 1-D table";
  eval t [| x |]

let eval2 t x y =
  if dims t <> 2 then invalid_arg "Lut.eval2: not a 2-D table";
  eval t [| x; y |]

let map f t = { t with values = Array.map f t.values }

let merge f a b =
  if Array.length a.axes <> Array.length b.axes then
    invalid_arg "Lut.merge: grid mismatch";
  Array.iteri
    (fun i axis ->
      if axis <> b.axes.(i) then invalid_arg "Lut.merge: grid mismatch")
    a.axes;
  { a with values = Array.init (Array.length a.values) (fun i -> f a.values.(i) b.values.(i)) }

let interpolate_1d ~xs ~ys x =
  let n = Array.length xs in
  if n <> Array.length ys then invalid_arg "Lut.interpolate_1d: length mismatch";
  if n = 0 then invalid_arg "Lut.interpolate_1d: empty";
  if n = 1 then ys.(0)
  else begin
    (* [Floatx.clamp], [inv_lerp] and [lerp] written out in the same
       operation order: the calls would box their float arguments *)
    let i = Ser_util.Floatx.binary_search_bracket xs x in
    let lo = xs.(0) and hi = xs.(n - 1) in
    let a = xs.(i) and b = xs.(i + 1) in
    let t =
      if a = b then 0.
      else if x < lo then (lo -. a) /. (b -. a)
      else if x > hi then (hi -. a) /. (b -. a)
      else (x -. a) /. (b -. a)
    in
    let y0 = ys.(i) in
    y0 +. ((ys.(i + 1) -. y0) *. t)
  end
