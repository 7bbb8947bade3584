module Json = Ser_util.Json
module Diag = Ser_util.Diag
module Mono = Ser_util.Mono

(* ------------------------------------------------------------------ *)
(* metrics                                                             *)
(* ------------------------------------------------------------------ *)

module Metrics = struct
  type counter = { c_name : string; c_cell : int Atomic.t }
  type gauge = { g_name : string; g_cell : float Atomic.t }

  (* Bucket k >= 1 holds values in [2^(k-1), 2^k); bucket 0 holds
     values <= 0. 63 buckets cover the whole non-negative int range. *)
  let n_buckets = 63

  type histogram = {
    h_name : string;
    h_count : int Atomic.t;
    h_sum : int Atomic.t;
    h_cells : int Atomic.t array;
  }

  let registry_m = Mutex.create ()
  let counters : (string, counter) Hashtbl.t = Hashtbl.create 64
  let gauges : (string, gauge) Hashtbl.t = Hashtbl.create 16
  let histograms : (string, histogram) Hashtbl.t = Hashtbl.create 16

  let registered tbl name create =
    Mutex.lock registry_m;
    let m =
      match Hashtbl.find_opt tbl name with
      | Some m -> m
      | None ->
        let m = create () in
        Hashtbl.add tbl name m;
        m
    in
    Mutex.unlock registry_m;
    m

  let counter name =
    registered counters name (fun () ->
        { c_name = name; c_cell = Atomic.make 0 })

  let incr c = Atomic.incr c.c_cell
  let add c n = ignore (Atomic.fetch_and_add c.c_cell n)
  let value c = Atomic.get c.c_cell

  let gauge name =
    registered gauges name (fun () ->
        { g_name = name; g_cell = Atomic.make 0. })

  let set_gauge g v = Atomic.set g.g_cell v

  let rec add_gauge g d =
    let cur = Atomic.get g.g_cell in
    if not (Atomic.compare_and_set g.g_cell cur (cur +. d)) then add_gauge g d

  let rec max_gauge g v =
    let cur = Atomic.get g.g_cell in
    if v > cur && not (Atomic.compare_and_set g.g_cell cur v) then max_gauge g v

  let gauge_value g = Atomic.get g.g_cell

  let histogram name =
    registered histograms name (fun () ->
        {
          h_name = name;
          h_count = Atomic.make 0;
          h_sum = Atomic.make 0;
          h_cells = Array.init n_buckets (fun _ -> Atomic.make 0);
        })

  let rec bits n acc = if n = 0 then acc else bits (n lsr 1) (acc + 1)

  let bucket_of v = if v <= 0 then 0 else min (n_buckets - 1) (bits v 0)

  let observe h v =
    Atomic.incr h.h_count;
    ignore (Atomic.fetch_and_add h.h_sum v);
    Atomic.incr h.h_cells.(bucket_of v)

  let histogram_count h = Atomic.get h.h_count
  let histogram_sum h = Atomic.get h.h_sum

  (* Bucket-resolution quantile: the lower bound of the bucket holding
     the q-th observation. Good to a factor of two — enough for a
     health endpoint's p50/p99 without recording raw samples. *)
  let histogram_quantile h q =
    let count = Atomic.get h.h_count in
    if count = 0 then 0.
    else begin
      let q = Float.max 0. (Float.min 1. q) in
      let rank = int_of_float (ceil (q *. float_of_int count)) in
      let rank = max 1 (min count rank) in
      let seen = ref 0 and result = ref 0. and k = ref 0 in
      while !seen < rank && !k < n_buckets do
        let n = Atomic.get h.h_cells.(!k) in
        if n > 0 then begin
          seen := !seen + n;
          result := (if !k = 0 then 0. else float_of_int (1 lsl (!k - 1)))
        end;
        k := !k + 1
      done;
      !result
    end

  let find tbl name =
    Mutex.lock registry_m;
    let r = Hashtbl.find_opt tbl name in
    Mutex.unlock registry_m;
    r

  let find_counter name = find counters name
  let find_gauge name = find gauges name

  let sorted_values tbl name_of =
    Hashtbl.fold (fun _ m acc -> m :: acc) tbl []
    |> List.sort (fun a b -> String.compare (name_of a) (name_of b))

  (* Bucket labels are the bucket's lower bound, so a snapshot reads as
     "cone size >= 16 happened n times". *)
  let bucket_label k = if k = 0 then "0" else string_of_int (1 lsl (k - 1))

  let histogram_json h =
    let buckets = ref [] in
    for k = n_buckets - 1 downto 0 do
      let n = Atomic.get h.h_cells.(k) in
      if n > 0 then buckets := (bucket_label k, Json.int n) :: !buckets
    done;
    Json.Obj
      [
        ("count", Json.int (Atomic.get h.h_count));
        ("sum", Json.int (Atomic.get h.h_sum));
        ("buckets", Json.Obj !buckets);
      ]

  let snapshot () =
    (* the process's allocation so far, sampled at the snapshot *)
    set_gauge (gauge "mem.minor_words") (Gc.quick_stat ()).Gc.minor_words;
    Mutex.lock registry_m;
    let cs =
      sorted_values counters (fun c -> c.c_name)
      |> List.map (fun c -> (c.c_name, Json.int (Atomic.get c.c_cell)))
    in
    let gs =
      sorted_values gauges (fun g -> g.g_name)
      |> List.map (fun g -> (g.g_name, Json.Num (Atomic.get g.g_cell)))
    in
    let hs =
      sorted_values histograms (fun h -> h.h_name)
      |> List.map (fun h -> (h.h_name, histogram_json h))
    in
    Mutex.unlock registry_m;
    Json.Obj [ ("counters", Json.Obj cs); ("gauges", Json.Obj gs); ("histograms", Json.Obj hs) ]

  let reset ?(prefix = "") () =
    let matches name = String.starts_with ~prefix name in
    Mutex.lock registry_m;
    Hashtbl.iter
      (fun _ c -> if matches c.c_name then Atomic.set c.c_cell 0)
      counters;
    Hashtbl.iter
      (fun _ g -> if matches g.g_name then Atomic.set g.g_cell 0.)
      gauges;
    Hashtbl.iter
      (fun _ h ->
        if matches h.h_name then begin
          Atomic.set h.h_count 0;
          Atomic.set h.h_sum 0;
          Array.iter (fun cell -> Atomic.set cell 0) h.h_cells
        end)
      histograms;
    Mutex.unlock registry_m
end

(* Per-domain memory high-water gauges (mem.domainN.heap_words_hwm):
   the probe is called at coarse boundaries — end of a parallel
   section's slot, end of a served request — so the cost of
   Gc.quick_stat and the registry lookup is off every hot loop. *)
let memory_probe () =
  let words = (Gc.quick_stat ()).Gc.heap_words in
  let name =
    "mem.domain" ^ string_of_int (Domain.self () :> int) ^ ".heap_words_hwm"
  in
  Metrics.max_gauge (Metrics.gauge name) (float_of_int words)

(* ------------------------------------------------------------------ *)
(* tracing                                                             *)
(* ------------------------------------------------------------------ *)

module Trace = struct
  let enabled_flag = Atomic.make false
  let enabled () = Atomic.get enabled_flag
  let set_enabled b = Atomic.set enabled_flag b

  (* Span sampling: record 1 of every N span openings so paper-scale
     runs (millions of spans) fit the 64 Ki ring buffers. The tick is
     process-wide, so "1 of N" holds across domains; a sampled-out
     span returns the [none] token, which makes the matching [finish]
     a no-op — B/E streams stay balanced with no buffer traffic. *)
  let sample_every_cell = Atomic.make 1
  let sample_tick = Atomic.make 0
  let m_sampled_drops = Metrics.counter "trace.sampled_drops"

  let set_sample_every n = Atomic.set sample_every_cell (max 1 n)
  let sample_every () = Atomic.get sample_every_cell

  let sampled_out () =
    let n = Atomic.get sample_every_cell in
    n > 1
    &&
    let t = Atomic.fetch_and_add sample_tick 1 in
    if t mod n = 0 then false
    else begin
      Metrics.incr m_sampled_drops;
      true
    end

  (* 64 Ki events per domain; ~2 MiB of arrays. When a buffer fills we
     drop NEW events (counting them) rather than overwrite old ones, so
     the recorded prefix stays a faithful stream; the export repairs
     the resulting torn tail. *)
  let capacity = 1 lsl 16

  type buf = {
    tid : int;
    names : string array;
    ts : float array; (* raw monotonic seconds *)
    durs : float array; (* 'X' events only *)
    phs : Bytes.t;
    mutable len : int;
    mutable dropped : int;
  }

  (* Registry of every buffer ever created, so events survive their
     domain (pool teardown/respawn) until export. Single-writer per
     buffer: only the owning domain appends. *)
  let bufs : buf list ref = ref []
  let bufs_m = Mutex.create ()

  let make_buf () =
    let b =
      {
        tid = (Domain.self () :> int);
        names = Array.make capacity "";
        ts = Array.make capacity 0.;
        durs = Array.make capacity 0.;
        phs = Bytes.make capacity ' ';
        len = 0;
        dropped = 0;
      }
    in
    Mutex.lock bufs_m;
    bufs := b :: !bufs;
    Mutex.unlock bufs_m;
    b

  let buf_key : buf Domain.DLS.key = Domain.DLS.new_key make_buf

  let push ph name ~ts ~dur =
    let b = Domain.DLS.get buf_key in
    if b.len < capacity then begin
      let i = b.len in
      b.names.(i) <- name;
      b.ts.(i) <- ts;
      b.durs.(i) <- dur;
      Bytes.set b.phs i ph;
      b.len <- i + 1
    end
    else b.dropped <- b.dropped + 1

  (* The token IS the name: starting a span allocates nothing, and a
     disabled probe returns the shared empty string. *)
  type span = string

  let none : span = ""

  let start name =
    if (not (Atomic.get enabled_flag)) || String.length name = 0 then none
    else if sampled_out () then none
    else begin
      push 'B' name ~ts:(Mono.now ()) ~dur:0.;
      name
    end

  let finish (s : span) =
    if String.length s > 0 then push 'E' s ~ts:(Mono.now ()) ~dur:0.

  let with_span name f =
    if not (Atomic.get enabled_flag) then f ()
    else begin
      let s = start name in
      Fun.protect ~finally:(fun () -> finish s) f
    end

  let instant name =
    if Atomic.get enabled_flag then push 'i' name ~ts:(Mono.now ()) ~dur:0.

  let timestamp () = Mono.now ()

  let complete name ~since =
    if Atomic.get enabled_flag && not (sampled_out ()) then
      push 'X' name ~ts:since ~dur:(Mono.now () -. since)

  let with_bufs f =
    Mutex.lock bufs_m;
    Fun.protect ~finally:(fun () -> Mutex.unlock bufs_m) (fun () -> f !bufs)

  let dropped () = with_bufs (List.fold_left (fun acc b -> acc + b.dropped) 0)

  let clear () =
    with_bufs
      (List.iter (fun b ->
           b.len <- 0;
           b.dropped <- 0))

  (* Epoch for exported timestamps, so ts values stay small. *)
  let t0 = Mono.now ()

  let to_json () =
    let pid = Unix.getpid () in
    let us t = Float.round ((t -. t0) *. 1e6) in
    let events = ref [] in
    (* built back-to-front *)
    let emit e = events := e :: !events in
    let base name ph ts = [ ("name", Json.Str name); ("cat", Json.Str "sertool"); ("ph", Json.Str ph); ("ts", Json.Num (us ts)); ("pid", Json.int pid) ] in
    with_bufs (fun all ->
        let all = List.sort (fun a b -> compare a.tid b.tid) all in
        List.iter
          (fun b ->
            let n = b.len in
            let tid = [ ("tid", Json.int b.tid) ] in
            if n > 0 then
              emit
                (Json.Obj
                   ([
                      ("name", Json.Str "thread_name");
                      ("ph", Json.Str "M");
                      ("pid", Json.int pid);
                      ( "args",
                        Json.Obj
                          [ ("name", Json.Str (Printf.sprintf "domain-%d" b.tid)) ]
                      );
                    ]
                   @ tid));
            (* Stream repair: match B/E with a stack so the document is
               always balanced and properly nested, whatever the drop
               pattern did to the tail. *)
            let open_spans = ref [] in
            let last_ts = ref t0 in
            for i = 0 to n - 1 do
              let ts = b.ts.(i) in
              if ts > !last_ts then last_ts := ts;
              match Bytes.get b.phs i with
              | 'B' ->
                open_spans := b.names.(i) :: !open_spans;
                emit (Json.Obj (base b.names.(i) "B" ts @ tid))
              | 'E' -> (
                match !open_spans with
                | _ :: rest ->
                  open_spans := rest;
                  emit (Json.Obj (base b.names.(i) "E" ts @ tid))
                | [] -> () (* orphan close: drop *))
              | 'X' ->
                emit
                  (Json.Obj
                     (base b.names.(i) "X" ts
                     @ [ ("dur", Json.Num (Float.round (b.durs.(i) *. 1e6))) ]
                     @ tid))
              | _ -> emit (Json.Obj (base b.names.(i) "i" ts @ tid))
            done;
            (* synthetic closes for spans torn open by a full buffer *)
            List.iter
              (fun name -> emit (Json.Obj (base name "E" !last_ts @ tid)))
              !open_spans)
          all);
    Json.Obj
      [
        ("traceEvents", Json.List (List.rev !events));
        ("displayTimeUnit", Json.Str "ms");
        ( "otherData",
          Json.Obj
            [ ("tool", Json.Str "sertool"); ("dropped", Json.int (dropped ())) ]
        );
      ]

  (* ---------------- exported-document surgery ---------------- *)

  let doc_events doc =
    match Option.bind (Json.member "traceEvents" doc) Json.to_list_opt with
    | Some evs -> evs
    | None -> []

  let doc_dropped doc =
    match
      Option.bind
        (Option.bind (Json.member "otherData" doc) (Json.member "dropped"))
        Json.to_int_opt
    with
    | Some n -> n
    | None -> 0

  (* One worker's trace timeline uses small thread ids (domain
     numbers); give each shard its own tid band so N workers' domains
     land side by side on one merged timeline instead of on top of
     each other. *)
  let shard_tid_stride = 1000

  let merge_documents docs =
    let remap shard ev =
      match ev with
      | Json.Obj fields ->
        let fields =
          List.map
            (fun (k, v) ->
              match (k, v) with
              | "tid", _ ->
                let tid =
                  match Json.to_int_opt v with Some t -> t | None -> 0
                in
                ("tid", Json.int ((shard * shard_tid_stride) + tid))
              | "args", Json.Obj args
                when Json.member "ph" ev = Some (Json.Str "M") ->
                ( "args",
                  Json.Obj
                    (List.map
                       (fun (ak, av) ->
                         match (ak, av) with
                         | "name", Json.Str n ->
                           ("name", Json.Str (Printf.sprintf "shard%d/%s" shard n))
                         | _ -> (ak, av))
                       args) )
              | _ -> (k, v))
            fields
        in
        Json.Obj fields
      | other -> other
    in
    let events =
      List.concat_map
        (fun (shard, doc) -> List.map (remap shard) (doc_events doc))
        docs
    in
    let dropped = List.fold_left (fun acc (_, d) -> acc + doc_dropped d) 0 docs in
    Json.Obj
      [
        ("traceEvents", Json.List events);
        ("displayTimeUnit", Json.Str "ms");
        ( "otherData",
          Json.Obj
            [
              ("tool", Json.Str "sertool");
              ("merged_from", Json.int (List.length docs));
              ("dropped", Json.int dropped);
            ] );
      ]

  type row = {
    row_name : string;
    row_count : int;
    row_total_us : float;
    row_self_us : float;
  }

  let tabulate doc =
    (* fold B/E/X events into per-name total and self time. Events are
       processed per (pid, tid) in document order — the order the
       exporter (and merge_documents) emits them, which is already
       chronological within one thread. "X" events carry their own
       duration and are charged entirely to themselves. *)
    let rows : (string, int ref * float ref * float ref) Hashtbl.t =
      Hashtbl.create 64
    in
    let charge name ~total ~self =
      let c, t, s =
        match Hashtbl.find_opt rows name with
        | Some r -> r
        | None ->
          let r = (ref 0, ref 0., ref 0.) in
          Hashtbl.replace rows name r;
          r
      in
      incr c;
      t := !t +. total;
      s := !s +. self
    in
    let stacks : (int * int, (string * float * float ref) list ref) Hashtbl.t =
      Hashtbl.create 8
    in
    let stack_of ev =
      let geti k =
        match Option.bind (Json.member k ev) Json.to_int_opt with
        | Some n -> n
        | None -> 0
      in
      let key = (geti "pid", geti "tid") in
      match Hashtbl.find_opt stacks key with
      | Some st -> st
      | None ->
        let st = ref [] in
        Hashtbl.replace stacks key st;
        st
    in
    List.iter
      (fun ev ->
        let str k = Option.bind (Json.member k ev) Json.to_str_opt in
        let num k = Option.bind (Json.member k ev) Json.to_float_opt in
        match (str "ph", str "name", num "ts") with
        | Some "B", Some name, Some ts ->
          let st = stack_of ev in
          st := (name, ts, ref 0.) :: !st
        | Some "E", _, Some ts -> (
          let st = stack_of ev in
          match !st with
          | [] -> () (* orphan close: exporter repair already dropped ours *)
          | (name, t0, child) :: rest ->
            st := rest;
            let dur = Float.max 0. (ts -. t0) in
            charge name ~total:dur ~self:(Float.max 0. (dur -. !child));
            (match rest with
            | (_, _, parent_child) :: _ -> parent_child := !parent_child +. dur
            | [] -> ()))
        | Some "X", Some name, Some _ ->
          let dur = match num "dur" with Some d -> d | None -> 0. in
          charge name ~total:dur ~self:dur
        | _ -> ())
      (doc_events doc);
    let listed =
      Hashtbl.fold
        (fun name (c, t, s) acc ->
          {
            row_name = name;
            row_count = !c;
            row_total_us = !t;
            row_self_us = !s;
          }
          :: acc)
        rows []
    in
    List.sort
      (fun a b ->
        match compare b.row_self_us a.row_self_us with
        | 0 -> compare a.row_name b.row_name
        | c -> c)
      listed
end

(* ------------------------------------------------------------------ *)
(* export                                                              *)
(* ------------------------------------------------------------------ *)

type writer = string -> string -> unit

let default_writer path contents =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc contents;
      output_char oc '\n';
      flush oc)

let write_doc ?(writer = default_writer) ~indent path doc =
  Diag.guard ~subsystem:"obs" (fun () -> writer path (Json.to_string ~indent doc))
  |> Result.map_error (fun d -> Diag.with_context d [ Diag.file path ])

(* Traces can hold 100k+ events: no pretty-printing. *)
let write_trace ?writer path = write_doc ?writer ~indent:false path (Trace.to_json ())
let write_metrics ?writer path = write_doc ?writer ~indent:true path (Metrics.snapshot ())

let cfg_m = Mutex.create ()
let trace_path = ref None
let metrics_path = ref None
let exit_hook = ref false

let trace_file () =
  Mutex.lock cfg_m;
  let p = !trace_path in
  Mutex.unlock cfg_m;
  p

let metrics_file () =
  Mutex.lock cfg_m;
  let p = !metrics_path in
  Mutex.unlock cfg_m;
  p

let flush ?writer () =
  let write w = function
    | None -> None
    | Some path -> ( match w path with Ok () -> None | Error d -> Some d)
  in
  let t = write (write_trace ?writer) (trace_file ()) in
  let m = write (write_metrics ?writer) (metrics_file ()) in
  List.filter_map Fun.id [ t; m ]

(* Observability must never abort the run it observed: the exit hook
   reports failed writes on stderr and carries on. *)
let ensure_exit_hook () =
  if not !exit_hook then begin
    exit_hook := true;
    at_exit (fun () ->
        List.iter (fun d -> prerr_endline (Diag.to_string d)) (flush ()))
  end

let set_path cell p =
  Mutex.lock cfg_m;
  cell := p;
  if p <> None then ensure_exit_hook ();
  Mutex.unlock cfg_m

let set_trace_file p =
  set_path trace_path p;
  if p <> None then Trace.set_enabled true

let set_metrics_file p = set_path metrics_path p

let install_from_env () =
  (match Sys.getenv_opt "SERTOOL_TRACE" with
  | Some p when String.trim p <> "" -> set_trace_file (Some p)
  | Some _ | None -> ());
  (match Sys.getenv_opt "SERTOOL_TRACE_SAMPLE" with
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n when n >= 1 -> Trace.set_sample_every n
    | Some _ | None -> ())
  | None -> ());
  match Sys.getenv_opt "SERTOOL_METRICS" with
  | Some p when String.trim p <> "" -> set_metrics_file (Some p)
  | Some _ | None -> ()
