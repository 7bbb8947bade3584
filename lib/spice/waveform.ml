type t = { times : float array; values : float array }

let dc v = { times = [| 0. |]; values = [| v |] }

let pwl points =
  if points = [] then invalid_arg "Waveform.pwl: empty";
  let times = Array.of_list (List.map fst points) in
  let values = Array.of_list (List.map snd points) in
  for i = 0 to Array.length times - 2 do
    if times.(i) >= times.(i + 1) then
      invalid_arg "Waveform.pwl: times must be strictly increasing"
  done;
  { times; values }

let step ?(t0 = 0.) ?(ramp = 1.) ~from ~to_ () =
  pwl [ (t0, from); (t0 +. Float.max ramp 1e-6, to_) ]

let triangle ?(t0 = 0.) ~base ~peak ~width () =
  pwl [ (t0, base); (t0 +. (width /. 2.), peak); (t0 +. width, base) ]

let glitch ?(t0 = 0.) ~base ~peak ~half_width () =
  (* a symmetric triangle's half-amplitude width is half its base width *)
  triangle ~t0 ~base ~peak ~width:(2. *. half_width) ()

let eval t x =
  let n = Array.length t.times in
  if n = 1 || x <= t.times.(0) then t.values.(0)
  else if x >= t.times.(n - 1) then t.values.(n - 1)
  else begin
    let i = Ser_util.Floatx.binary_search_bracket t.times x in
    let f = Ser_util.Floatx.inv_lerp t.times.(i) t.times.(i + 1) x in
    Ser_util.Floatx.lerp t.values.(i) t.values.(i + 1) f
  end
