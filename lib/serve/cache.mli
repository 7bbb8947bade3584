(** Content-addressed result cache with atomic on-disk persistence,
    an {!Lru} of result payloads.

    Keys are digests of the {e content} that determines a result — the
    canonical netlist rendering, the cell-library axes, the canonical
    per-op parameter subset — never of file paths or request framing,
    so a netlist reaches the same entry whether it arrives as a spec, a
    path, or inline text with its lines shuffled. Values are the
    deterministic result payloads produced by {!Ser_cli.Handlers}
    (timestamp-free, so a hit is bit-identical to a recompute).

    Persistence is crash-safe: the whole cache is rendered to
    [cache.json.tmp] and renamed over [cache.json], so a kill at any
    instant leaves either the old or the new file, never a torn one. A
    corrupt or unreadable file at startup degrades to an empty cache
    with a diagnostic — it never prevents the daemon from starting.
    Write failures (e.g. ENOSPC) are likewise contained: the daemon
    keeps serving from memory and counts the failure. *)

val key :
  circuit:string -> library:string -> params:Ser_util.Json.t -> string
(** Combine a {!Ser_netlist.Circuit.digest}, a
    {!Ser_cli.Handlers.library_id} and a canonical
    {!Ser_cli.Request.params_json} into one digest. The
    digest also covers a payload-schema version, so entries persisted
    by a build with another payload shape miss. *)

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  persist_errors : int;
  entries : int;
}

type t

val create :
  ?max_entries:int ->
  ?dir:string ->
  ?writer:(string -> string -> unit) ->
  unit ->
  t * Ser_util.Diag.t list
(** [max_entries] defaults to 256. With [dir], loads [dir/cache.json]
    if present (returned diags report a corrupt/unreadable file) and
    {!flush} persists there. [writer path contents] overrides the
    default atomic tmp+rename writer — fault-injection hook for the
    ENOSPC scenario. *)

val find : t -> string -> Ser_util.Json.t option
(** Refreshes recency and counts a hit/miss. *)

val add : t -> string -> Ser_util.Json.t -> unit
(** Insert or refresh; evicts the least recently used entry beyond
    [max_entries]. The [evictions] of {!stats} leave out those made
    while loading [cache.json]. *)

val flush : t -> Ser_util.Diag.t list
(** Persist to disk ([[]] when no [dir] or on success); failures come
    back as diags and bump [persist_errors]. *)

val stats : t -> stats
val stats_json : t -> Ser_util.Json.t
