type 'v entry = { value : 'v; mutable gen : int }

type 'v t = {
  bound : int;
  table : (string, 'v entry) Hashtbl.t;
  mutable clock : int;
  mutable evictions : int;
}

let create bound =
  let bound = max 1 bound in
  { bound; table = Hashtbl.create (min bound 64); clock = 0; evictions = 0 }

let tick t =
  t.clock <- t.clock + 1;
  t.clock

let find t k =
  match Hashtbl.find_opt t.table k with
  | Some e ->
    e.gen <- tick t;
    Some e.value
  | None -> None

(* one insert at a time, so at most one entry is over the bound *)
let add t k v =
  Hashtbl.replace t.table k { value = v; gen = tick t };
  if Hashtbl.length t.table > t.bound then begin
    let victim, _ =
      Hashtbl.fold
        (fun k e (v, g) -> if e.gen < g then (k, e.gen) else (v, g))
        t.table ("", max_int)
    in
    Hashtbl.remove t.table victim;
    t.evictions <- t.evictions + 1
  end

let length t = Hashtbl.length t.table
let evictions t = t.evictions

let to_list t =
  Hashtbl.fold (fun k e acc -> (e.gen, k, e.value) :: acc) t.table []
  |> List.sort (fun (a, _, _) (b, _, _) -> Int.compare a b)
  |> List.map (fun (_, k, v) -> (k, v))
