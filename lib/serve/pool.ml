module Json = Ser_util.Json

type entry = {
  e_assignment : Ser_sta.Assignment.t;
  e_incr : Ser_incr.Incr.t;
}

type slot = { entry : entry; mutable gen : int }

type t = {
  max_entries : int;
  table : (string, slot) Hashtbl.t;
  mutable clock : int;
  mutable warm_hits : int;
  mutable builds : int;
  mutable evictions : int;
}

let m_warm = Ser_obs.Obs.Metrics.counter "serve.pool_warm_hits"
let m_builds = Ser_obs.Obs.Metrics.counter "serve.pool_builds"

let create ?(max_entries = 4) () =
  {
    max_entries = max 1 max_entries;
    table = Hashtbl.create 8;
    clock = 0;
    warm_hits = 0;
    builds = 0;
    evictions = 0;
  }

let tick t =
  t.clock <- t.clock + 1;
  t.clock

let evict t =
  while Hashtbl.length t.table > t.max_entries do
    let victim =
      Hashtbl.fold
        (fun k s acc ->
          match acc with
          | Some (_, g) when g <= s.gen -> acc
          | _ -> Some (k, s.gen))
        t.table None
    in
    match victim with
    | Some (k, _) ->
      Hashtbl.remove t.table k;
      t.evictions <- t.evictions + 1
    | None -> ()
  done

let warm t ~key ~build =
  match Hashtbl.find_opt t.table key with
  | Some s ->
    s.gen <- tick t;
    t.warm_hits <- t.warm_hits + 1;
    Ser_obs.Obs.Metrics.incr m_warm;
    (s.entry, true)
  | None ->
    let entry = build () in
    Hashtbl.replace t.table key { entry; gen = tick t };
    t.builds <- t.builds + 1;
    Ser_obs.Obs.Metrics.incr m_builds;
    evict t;
    (entry, false)

let stats_json t =
  Json.Obj
    [
      ("entries", Json.int (Hashtbl.length t.table));
      ("warm_hits", Json.int t.warm_hits);
      ("builds", Json.int t.builds);
      ("evictions", Json.int t.evictions);
    ]
