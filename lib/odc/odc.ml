module Circuit = Ser_netlist.Circuit
module Bitsim = Ser_logicsim.Bitsim
module Flipsim = Ser_logicsim.Flipsim
module Rng = Ser_rng.Rng
module Json = Ser_util.Json
module Diag = Ser_util.Diag
module Obs = Ser_obs.Obs

let subsystem = "odc"

type mode = Exhaustive | Sampled

let mode_to_string = function Exhaustive -> "exhaustive" | Sampled -> "sampled"

let mode_of_string = function
  | "exhaustive" -> Some Exhaustive
  | "sampled" -> Some Sampled
  | _ -> None

type config = { mode : mode; vectors : int; seed : int; pi_cap : int }

let default = { mode = Exhaustive; vectors = 4000; seed = 1; pi_cap = 16 }

(* 2^20 support patterns is ~17k packed batches per proof — already
   generous; beyond that the enumeration stops being "free" next to
   the analysis it feeds. *)
let max_pi_cap = 20

type classification = Proven_masked | Observed | Sampled_unobserved

let classification_to_string = function
  | Proven_masked -> "proven-masked"
  | Observed -> "observed"
  | Sampled_unobserved -> "sampled-unobserved"

let classification_of_string = function
  | "proven-masked" -> Some Proven_masked
  | "observed" -> Some Observed
  | "sampled-unobserved" -> Some Sampled_unobserved
  | _ -> None

type site = {
  gate : string;
  cls : classification;
  detected : int;
  tested : int;
  support : int;
  obs : float;
  obs_ub : float;
}

type t = {
  circuit : string;
  digest : string;
  config : config;
  sites : site array;
}

(* ------------------------------ metrics ----------------------------- *)

let m_tested = Obs.Metrics.counter "odc.sites_tested"
let m_proven = Obs.Metrics.counter "odc.sites_proven"
let m_observed = Obs.Metrics.counter "odc.sites_observed"
let m_sampled = Obs.Metrics.counter "odc.sites_sampled"
let m_stem_flips = Obs.Metrics.counter "odc.stem_flips"
let h_site_vectors = Obs.Metrics.histogram "odc.site_vectors"
let h_proof_patterns = Obs.Metrics.histogram "odc.proof_patterns"

(* ------------------------------ engine ------------------------------ *)

let batch_count vectors =
  (vectors + Bitsim.bits_per_word - 1) / Bitsim.bits_per_word

(* Sampled screen: any-PO detection counts per site over shared random
   batches. Batch [b] draws from the index-keyed stream
   [Rng.stream base b] and the reduction combines in ascending chunk
   order, so the counts are bit-identical for any worker count. Each
   batch flips only the fanout-free-region roots and traces their
   members (lib/logicsim Flipsim), which gives every site's count
   exactly. *)
let screen ~config (c : Circuit.t) =
  let n = Circuit.node_count c in
  let g = Circuit.graph c in
  let roots = g.Circuit.Graph.roots in
  let base = Rng.split (Rng.create config.seed) in
  Ser_par.Par.parallel_reduce ~n:(batch_count config.vectors)
    ~init:(Array.make n 0)
    ~map:(fun ~lo ~hi ->
      let counts = Array.make n 0 in
      let ws = Flipsim.scratch g in
      for b = lo to hi - 1 do
        let rng_b = Rng.stream base b in
        let k =
          min (config.vectors - (b * Bitsim.bits_per_word)) Bitsim.bits_per_word
        in
        let mask = Bitsim.mask_of k in
        let good = (Bitsim.random_batch rng_b c ~n_patterns:k).Bitsim.values in
        Array.iter
          (fun r ->
            Flipsim.flip ws ~good ~mask r;
            if Flipsim.observed ws <> 0 then
              Flipsim.trace ws r (fun g w ->
                  counts.(g) <- counts.(g) + Bitsim.popcount w))
          roots
      done;
      counts)
    ~combine:(fun a b ->
      Array.iteri (fun i v -> a.(i) <- a.(i) + v) b;
      a)
    ()

(* Influence support of a fault site: primary-input {e positions}
   (indices into [c.inputs]) in the fanin closure of its fanout cone.
   The PO-difference function of the flip is a function of exactly
   these inputs — every cone gate's recomputation reads only cone
   values and side inputs, all inside the closure. One queue collects
   the cone over the graph's distinct fanouts, then keeps growing
   through the fanins of everything queued; nodes are stamped with the
   site's id, so a worker reuses one [stamp] and [queue] for all its
   sites. *)
let influence_support (c : Circuit.t) ~stamp ~queue id =
  let g = Circuit.graph c in
  let len = ref 0 in
  let visit v =
    if stamp.(v) <> id then begin
      stamp.(v) <- id;
      queue.(!len) <- v;
      incr len
    end
  in
  let walk off adj =
    let head = ref 0 in
    while !head < !len do
      let v = queue.(!head) in
      incr head;
      for q = off.(v) to off.(v + 1) - 1 do visit adj.(q) done
    done
  in
  visit id;
  walk g.Circuit.Graph.fo_off g.fo;
  walk g.fi_off g.fi;
  let inputs = c.Circuit.inputs in
  List.init (Array.length inputs) Fun.id
  |> List.filter (fun p -> stamp.(inputs.(p)) = id)
  |> Array.of_list

(* Exhaustive proof over the support: enumerate all [2^|S|] support
   assignments packed [bits_per_word] per batch — support position [s]
   carries bit [(pattern lsr s) land 1]; non-support inputs stay 0,
   which is sound because the difference function does not read them.
   Returns (detections, patterns). Zero detections is a proof: every
   achievable behaviour of the difference function was enumerated. *)
let prove (c : Circuit.t) ws ~supp id =
  let k_sup = Array.length supp in
  let total = 1 lsl k_sup in
  let pi_words = Array.make (Array.length c.Circuit.inputs) 0 in
  let det = ref 0 in
  for b = 0 to batch_count total - 1 do
    let p0 = b * Bitsim.bits_per_word in
    let k = min (total - p0) Bitsim.bits_per_word in
    let mask = Bitsim.mask_of k in
    for s = 0 to k_sup - 1 do
      let w = ref 0 in
      for j = 0 to k - 1 do
        if ((p0 + j) lsr s) land 1 = 1 then w := !w lor (1 lsl j)
      done;
      pi_words.(supp.(s)) <- !w
    done;
    let good = (Bitsim.eval c ~pi_words ~n_patterns:k).Bitsim.values in
    Flipsim.flip ws ~good ~mask id;
    det := !det + Bitsim.popcount (Flipsim.observed ws)
  done;
  (!det, total)

let rule_of_three tested =
  if tested <= 0 then 1. else min 1. (3. /. float_of_int tested)

let validate config =
  if config.vectors < 1 then
    Diag.fail ~subsystem
      ~context:[ ("vectors", string_of_int config.vectors) ]
      "vector budget must be >= 1 (got %d)" config.vectors;
  if config.pi_cap < 0 || config.pi_cap > max_pi_cap then
    Diag.fail ~subsystem
      ~context:[ ("pi_cap", string_of_int config.pi_cap) ]
      "pi_cap must be in 0..%d (got %d)" max_pi_cap config.pi_cap

(* One site's classification from its screen count: observed when the
   screen saw it, else settled by its influence support, exhaustively
   when that is small enough. *)
let classify ~config (c : Circuit.t) counts ~stamp ~queue ws id =
  let name = (Circuit.node c id).Circuit.name in
  let det = counts.(id) in
  if det > 0 then
    let obs = float_of_int det /. float_of_int config.vectors in
    {
      gate = name;
      cls = Observed;
      detected = det;
      tested = config.vectors;
      support = -1;
      obs;
      obs_ub =
        min 1. (float_of_int (det + 3) /. float_of_int config.vectors);
    }
  else
    let supp = influence_support c ~stamp ~queue id in
    let k_sup = Array.length supp in
    if config.mode = Exhaustive && k_sup <= config.pi_cap then begin
      let det, total =
        Obs.Trace.with_span "odc.prove" @@ fun () ->
        prove c ws ~supp id
      in
      Obs.Metrics.observe h_proof_patterns total;
      if det = 0 then
        {
          gate = name;
          cls = Proven_masked;
          detected = 0;
          tested = config.vectors + total;
          support = k_sup;
          obs = 0.;
          obs_ub = 0.;
        }
      else
        (* exact over the support enumeration: every support
           assignment appears exactly once *)
        let obs = float_of_int det /. float_of_int total in
        {
          gate = name;
          cls = Observed;
          detected = det;
          tested = total;
          support = k_sup;
          obs;
          obs_ub = obs;
        }
    end
    else
      {
        gate = name;
        cls = Sampled_unobserved;
        detected = 0;
        tested = config.vectors;
        support = k_sup;
        obs = 0.;
        obs_ub = rule_of_three config.vectors;
      }

let analyze ?(config = default) (c : Circuit.t) =
  validate config;
  Obs.Trace.with_span "odc.analyze" @@ fun () ->
  let n = Circuit.node_count c in
  let g = Circuit.graph c in
  let counts =
    Obs.Trace.with_span "odc.screen" @@ fun () -> screen ~config c
  in
  Obs.Metrics.add m_stem_flips
    (Array.length g.Circuit.Graph.roots * batch_count config.vectors);
  (* Screen survivors get their influence support computed; in
     Exhaustive mode the small-support ones are then settled by
     enumeration. Both passes are RNG-free and element-independent, so
     the parallel map is deterministic; each worker slot keeps one
     walk and flip scratch for all its sites. *)
  let gate_ids =
    Array.of_list
      (List.filter (fun i -> not (Circuit.is_input c i)) (List.init n Fun.id))
  in
  let slots = Ser_par.Par.jobs () in
  let scratch =
    Array.init slots (fun _ ->
        (Array.make n (-1), Array.make n 0, Flipsim.scratch g))
  in
  let sites = Array.make (Array.length gate_ids) None in
  Obs.Trace.with_span "odc.classify" (fun () ->
      Ser_par.Par.parallel_chunks ~chunk:1 ~n:(Array.length gate_ids)
        (fun ~slot ~lo ~hi ->
          let stamp, queue, ws = scratch.(min slot (slots - 1)) in
          for i = lo to hi - 1 do
            sites.(i) <-
              Some (classify ~config c counts ~stamp ~queue ws gate_ids.(i))
          done));
  let sites = Array.map Option.get sites in
  Array.sort (fun a b -> String.compare a.gate b.gate) sites;
  Obs.Metrics.add m_tested (Array.length sites);
  Array.iter
    (fun s ->
      Obs.Metrics.observe h_site_vectors s.tested;
      Obs.Metrics.incr
        (match s.cls with
        | Proven_masked -> m_proven
        | Observed -> m_observed
        | Sampled_unobserved -> m_sampled))
    sites;
  { circuit = c.Circuit.name; digest = Circuit.digest c; config; sites }

let analyze_checked ?config c =
  Diag.guard ~subsystem (fun () -> analyze ?config c)

let count cls t =
  Array.fold_left (fun acc s -> if s.cls = cls then acc + 1 else acc) 0 t.sites

let n_proven t = count Proven_masked t
let n_observed t = count Observed t
let n_sampled t = count Sampled_unobserved t

(* ------------------------------ report ------------------------------ *)

let format_tag = "odc-report-v1"

let site_to_json s =
  Json.Obj
    [
      ("gate", Json.Str s.gate);
      ("class", Json.Str (classification_to_string s.cls));
      ("detected", Json.int s.detected);
      ("tested", Json.int s.tested);
      ("support", Json.int s.support);
      ("obs", Json.Num s.obs);
      ("obs_ub", Json.Num s.obs_ub);
    ]

let to_json t =
  Json.Obj
    [
      ("format", Json.Str format_tag);
      ("circuit", Json.Str t.circuit);
      ("digest", Json.Str t.digest);
      ("mode", Json.Str (mode_to_string t.config.mode));
      ("vectors", Json.int t.config.vectors);
      ("seed", Json.int t.config.seed);
      ("pi_cap", Json.int t.config.pi_cap);
      ( "summary",
        Json.Obj
          [
            ("sites", Json.int (Array.length t.sites));
            ("proven_masked", Json.int (n_proven t));
            ("observed", Json.int (n_observed t));
            ("sampled_unobserved", Json.int (n_sampled t));
          ] );
      ("sites", Json.List (Array.to_list (Array.map site_to_json t.sites)));
    ]

let ( let* ) = Result.bind

let req_field name conv j =
  match Option.bind (Json.member name j) conv with
  | Some v -> Ok v
  | None ->
    Error
      (Diag.error ~subsystem ~context:[ ("field", name) ]
         "report is missing or has a malformed \"%s\" field" name)

let site_of_json j =
  let* gate = req_field "gate" Json.to_str_opt j in
  let* cls_s = req_field "class" Json.to_str_opt j in
  let* cls =
    match classification_of_string cls_s with
    | Some c -> Ok c
    | None ->
      Error
        (Diag.error ~subsystem ~context:[ Diag.gate gate ]
           "unknown site class %S" cls_s)
  in
  let* detected = req_field "detected" Json.to_int_opt j in
  let* tested = req_field "tested" Json.to_int_opt j in
  let* support = req_field "support" Json.to_int_opt j in
  let* obs = req_field "obs" Json.to_float_opt j in
  let* obs_ub = req_field "obs_ub" Json.to_float_opt j in
  Ok { gate; cls; detected; tested; support; obs; obs_ub }

let of_json j =
  let* tag = req_field "format" Json.to_str_opt j in
  let* () =
    if tag = format_tag then Ok ()
    else
      Error
        (Diag.error ~subsystem
           ~context:[ ("format", tag) ]
           "not an ODC report (expected format %S)" format_tag)
  in
  let* circuit = req_field "circuit" Json.to_str_opt j in
  let* digest = req_field "digest" Json.to_str_opt j in
  let* mode_s = req_field "mode" Json.to_str_opt j in
  let* mode =
    match mode_of_string mode_s with
    | Some m -> Ok m
    | None -> Error (Diag.error ~subsystem "unknown ODC mode %S" mode_s)
  in
  let* vectors = req_field "vectors" Json.to_int_opt j in
  let* seed = req_field "seed" Json.to_int_opt j in
  let* pi_cap = req_field "pi_cap" Json.to_int_opt j in
  let* site_list = req_field "sites" Json.to_list_opt j in
  let* sites =
    List.fold_left
      (fun acc sj ->
        let* acc = acc in
        let* s = site_of_json sj in
        Ok (s :: acc))
      (Ok []) site_list
  in
  let sites = Array.of_list (List.rev sites) in
  Array.sort (fun a b -> String.compare a.gate b.gate) sites;
  Ok { circuit; digest; config = { mode; vectors; seed; pi_cap }; sites }

(* --------------------------- consumer views ------------------------- *)

let bind_to_circuit (c : Circuit.t) t =
  let actual = Circuit.digest c in
  if t.digest <> actual then
    Error
      (Diag.error ~subsystem
         ~context:
           [
             ("circuit", c.Circuit.name);
             ("report_digest", t.digest);
             ("circuit_digest", actual);
           ]
         "ODC report was minted for a different netlist")
  else Ok ()

let resolve_site (c : Circuit.t) s =
  match Circuit.find_by_name c s.gate with
  | None ->
    Error
      (Diag.error ~subsystem ~context:[ Diag.gate s.gate ]
         "ODC report references a gate the circuit does not have")
  | Some id when Circuit.is_input c id ->
    Error
      (Diag.error ~subsystem ~context:[ Diag.gate s.gate ]
         "ODC report classifies a primary input as a fault site")
  | Some id -> Ok id

let prune_set c t =
  let* () = bind_to_circuit c t in
  let prune = Array.make (Circuit.node_count c) false in
  let* () =
    Array.fold_left
      (fun acc s ->
        let* () = acc in
        if s.cls <> Proven_masked then Ok ()
        else
          let* id = resolve_site c s in
          prune.(id) <- true;
          Ok ())
      (Ok ()) t.sites
  in
  Ok prune

let obs_array c t =
  let* () = bind_to_circuit c t in
  let obs = Array.make (Circuit.node_count c) 1. in
  let* () =
    Array.fold_left
      (fun acc s ->
        let* () = acc in
        let* id = resolve_site c s in
        obs.(id) <-
          (match s.cls with
          | Proven_masked -> 0.
          | Observed -> s.obs
          | Sampled_unobserved -> s.obs_ub);
        Ok ())
      (Ok ()) t.sites
  in
  Ok obs

(* ------------------------------ render ------------------------------ *)

let render t =
  let b = Buffer.create 1024 in
  Printf.bprintf b "ODC report: %s (%s, %d vectors, seed %d, pi_cap %d)\n"
    t.circuit
    (mode_to_string t.config.mode)
    t.config.vectors t.config.seed t.config.pi_cap;
  Printf.bprintf b
    "sites %d | proven-masked %d | observed %d | sampled-unobserved %d\n"
    (Array.length t.sites) (n_proven t) (n_observed t) (n_sampled t);
  let interesting =
    Array.to_list t.sites
    |> List.filter (fun s -> s.cls <> Observed || s.obs < 0.05)
  in
  if interesting <> [] then begin
    let tbl =
      Ser_util.Ascii_table.create
        ~aligns:
          Ser_util.Ascii_table.[ Left; Left; Right; Right; Right; Right ]
        [ "gate"; "class"; "detected"; "tested"; "support"; "obs_ub" ]
    in
    List.iter
      (fun s ->
        Ser_util.Ascii_table.add_row tbl
          [
            s.gate;
            classification_to_string s.cls;
            string_of_int s.detected;
            string_of_int s.tested;
            (if s.support < 0 then "-" else string_of_int s.support);
            Printf.sprintf "%.4g" s.obs_ub;
          ])
      interesting;
    Buffer.add_string b (Ser_util.Ascii_table.render tbl)
  end;
  Buffer.contents b
