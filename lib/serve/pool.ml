module Json = Ser_util.Json

type slot = { prepared : Ser_cli.Handlers.prepared; mutable gen : int }

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

(* one insert at a time, so at most one entry is over the bound *)
let evict t =
  if Hashtbl.length t.table > t.max_entries then begin
    let victim, _ =
      Hashtbl.fold
        (fun k s (v, g) -> if s.gen < g then (k, s.gen) else (v, g))
        t.table ("", max_int)
    in
    Hashtbl.remove t.table victim;
    t.evictions <- t.evictions + 1
  end

let warm t ~key prepared =
  t.clock <- t.clock + 1;
  match Hashtbl.find_opt t.table key with
  | Some s ->
    s.gen <- t.clock;
    t.warm_hits <- t.warm_hits + 1;
    Ser_obs.Obs.Metrics.incr m_warm;
    (s.prepared, true)
  | None ->
    Hashtbl.replace t.table key { prepared; gen = t.clock };
    t.builds <- t.builds + 1;
    Ser_obs.Obs.Metrics.incr m_builds;
    evict t;
    (prepared, false)

let stats_json t =
  Json.Obj
    [
      ("entries", Json.int (Hashtbl.length t.table));
      ("warm_hits", Json.int t.warm_hits);
      ("builds", Json.int t.builds);
      ("evictions", Json.int t.evictions);
    ]
