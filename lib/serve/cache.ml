module Json = Ser_util.Json
module Diag = Ser_util.Diag

let subsystem = "serve"

(* ------------------------------- keys ------------------------------ *)

(* The leading version names the payload schema: bump it whenever a
   payload's shape or values change, so a persisted --cache-dir written
   by an older build misses instead of serving the old payload. *)
let key ~circuit ~library ~params =
  Digest.to_hex
    (Digest.string
       (Printf.sprintf "v3|%s|%s|%s" circuit library (Json.to_string params)))

(* ------------------------------ table ------------------------------ *)

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  persist_errors : int;
  entries : int;
}

type t = {
  lru : Json.t Lru.t;
  dir : string option;
  writer : string -> string -> unit;
  mutable load_evictions : int;
  mutable hits : int;
  mutable misses : int;
  mutable persist_errors : int;
}

let m_hits = Ser_obs.Obs.Metrics.counter "serve.cache_hits"
let m_misses = Ser_obs.Obs.Metrics.counter "serve.cache_misses"
let m_evictions = Ser_obs.Obs.Metrics.counter "serve.cache_evictions"
let m_persist_errors = Ser_obs.Obs.Metrics.counter "serve.cache_persist_errors"

let atomic_write path contents =
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  (try
     output_string oc contents;
     flush oc;
     close_out oc
   with e ->
     (try close_out_noerr oc with _ -> ());
     raise e);
  Sys.rename tmp path

let cache_file dir = Filename.concat dir "cache.json"

let add t k v =
  let before = Lru.evictions t.lru in
  Lru.add t.lru k v;
  if Lru.evictions t.lru > before then
    Ser_obs.Obs.Metrics.incr m_evictions

let load t path =
  if not (Sys.file_exists path) then []
  else
    match Json.of_file path with
    | Error (Json.Io msg | Json.Syntax msg) ->
      [
        Diag.make ~subsystem
          ~context:[ ("file", path); ("action", "cache-load") ]
          msg;
      ]
    | Ok j -> (
      match Json.member "entries" j with
      | Some (Json.List items) ->
        (* Stored oldest-first, so straight inserts rebuild recency. *)
        List.iter
          (fun item ->
            match (Json.member "key" item, Json.member "payload" item) with
            | Some (Json.Str k), Some v -> add t k v
            | _ -> ())
          items;
        []
      | _ ->
        [
          Diag.make ~subsystem ~context:[ ("file", path) ]
            "cache file has no entries list; starting empty";
        ])

let create ?(max_entries = 256) ?dir ?(writer = atomic_write) () =
  let t =
    {
      lru = Lru.create max_entries;
      dir;
      writer;
      load_evictions = 0;
      hits = 0;
      misses = 0;
      persist_errors = 0;
    }
  in
  let diags =
    match dir with None -> [] | Some d -> load t (cache_file d)
  in
  (* Loading is not eviction churn worth reporting. *)
  t.load_evictions <- Lru.evictions t.lru;
  (t, diags)

let find t k =
  match Lru.find t.lru k with
  | Some _ as hit ->
    t.hits <- t.hits + 1;
    Ser_obs.Obs.Metrics.incr m_hits;
    hit
  | None ->
    t.misses <- t.misses + 1;
    Ser_obs.Obs.Metrics.incr m_misses;
    None

let render t =
  let items =
    List.map
      (fun (k, v) -> Json.Obj [ ("key", Json.Str k); ("payload", v) ])
      (Lru.to_list t.lru)
  in
  Json.to_string
    (Json.Obj [ ("version", Json.int 1); ("entries", Json.List items) ])

let flush t =
  match t.dir with
  | None -> []
  | Some dir -> (
    match
      Diag.guard ~subsystem (fun () ->
          try
            (try Unix.mkdir dir 0o755
             with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
            t.writer (cache_file dir) (render t)
          with Unix.Unix_error (e, fn, arg) ->
            (* injected writers raise raw [Unix_error]s (ENOSPC, ...) *)
            failwith
              (Printf.sprintf "%s(%s): %s" fn arg (Unix.error_message e)))
    with
    | Ok () -> []
    | Error d ->
      t.persist_errors <- t.persist_errors + 1;
      Ser_obs.Obs.Metrics.incr m_persist_errors;
      [ Diag.with_context d [ ("dir", dir); ("action", "cache-flush") ] ])

let stats t =
  {
    hits = t.hits;
    misses = t.misses;
    evictions = Lru.evictions t.lru - t.load_evictions;
    persist_errors = t.persist_errors;
    entries = Lru.length t.lru;
  }

let stats_json t =
  let s = stats t in
  let total = s.hits + s.misses in
  Json.Obj
    [
      ("entries", Json.int s.entries);
      ("hits", Json.int s.hits);
      ("misses", Json.int s.misses);
      ("hit_rate", Json.Num (if total = 0 then 0. else float_of_int s.hits /. float_of_int total));
      ("evictions", Json.int s.evictions);
      ("persist_errors", Json.int s.persist_errors);
    ]
