module Json = Ser_util.Json
module Diag = Ser_util.Diag

let subsystem = "cli"

type source = Spec of string | Inline_bench of string
type op = Analyze | Optimize | Rate | Odc

let op_to_string = function
  | Analyze -> "analyze"
  | Optimize -> "optimize"
  | Rate -> "rate"
  | Odc -> "odc"

let op_of_string = function
  | "analyze" -> Some Analyze
  | "optimize" -> Some Optimize
  | "rate" -> Some Rate
  | "odc" -> Some Odc
  | _ -> None

type fault =
  | Hang
  | Crash
  | Oom
  | Garbage
  | Exit of int
  | Flaky of int
  | Sleep_ms of float

let fault_of_string f =
  let bad =
    Error
      (Printf.sprintf
         "unknown fault %S (known: hang, crash, oom, garbage, exit:N, \
          flaky:N, sleep:MS)"
         f)
  in
  let arg parse make s =
    match parse s with Some v -> Ok (make v) | None -> bad
  in
  let ms s =
    match float_of_string_opt s with
    | Some ms when Float.is_finite ms && ms >= 0. -> Some ms
    | _ -> None
  in
  match String.split_on_char ':' f with
  | [ "hang" ] -> Ok Hang
  | [ "crash" ] -> Ok Crash
  | [ "oom" ] -> Ok Oom
  | [ "garbage" ] -> Ok Garbage
  | [ "exit"; n ] -> arg int_of_string_opt (fun n -> Exit n) n
  | [ "flaky"; n ] -> arg int_of_string_opt (fun n -> Flaky n) n
  | [ "sleep"; s ] -> arg ms (fun ms -> Sleep_ms ms) s
  | _ -> bad

let fault_to_string = function
  | Hang -> "hang"
  | Crash -> "crash"
  | Oom -> "oom"
  | Garbage -> "garbage"
  | Exit n -> Printf.sprintf "exit:%d" n
  | Flaky n -> Printf.sprintf "flaky:%d" n
  | Sleep_ms ms ->
    (* shortest decimal that reads back as the same float *)
    let s = Printf.sprintf "%.15g" ms in
    "sleep:" ^ if float_of_string s = ms then s else Printf.sprintf "%.17g" ms

type t = {
  id : string option;
  op : op;
  source : source;
  backend : string;
  vectors : int;
  charge : float;
  top : int;
  vdds : float list;
  vths : float list;
  evals : int;
  greedy : int;
  eval_tier : string;
  tier_k : int;
  budget_evals : int option;
  clock : float option;
  q_slope : float;
  deadline_s : float option;
  isolate : bool option;
  fault : fault option;
  odc_mode : string;
  odc_seed : int;
  odc_threshold : float;
}

let defaults op source =
  {
    id = None;
    op;
    source;
    backend = "aserta";
    vectors = (match op with Analyze -> 10_000 | Optimize | Rate | Odc -> 4000);
    charge = 16.;
    top = 10;
    vdds = [];
    vths = [];
    evals = 120;
    greedy = 2;
    eval_tier = "exact";
    tier_k = 6;
    budget_evals = None;
    clock = None;
    q_slope = 6.;
    deadline_s = None;
    isolate = None;
    fault = None;
    odc_mode = "exhaustive";
    odc_seed = 1;
    odc_threshold = 0.05;
  }

let err fmt = Printf.ksprintf (fun m -> Error (Diag.make ~subsystem m)) fmt

let menu_axes ~vdds ~vths =
  Ser_cell.Library.restrict
    ?vdds:(if vdds = [] then None else Some vdds)
    ?vths:(if vths = [] then None else Some vths)
    Ser_cell.Library.default_axes

(* The one place request values are range-checked: every front end
   that builds a request from flags calls it, and so does {!of_json}
   (serve, batch and worker). *)
let validate t =
  if t.vectors < 1 then err "vectors must be >= 1 (got %d)" t.vectors
  else if (not (Float.is_finite t.charge)) || t.charge <= 0. then
    err "charge must be finite and positive"
  else if t.top < 0 then err "top must be >= 0"
  else if t.evals < 0 then err "evals must be >= 0"
  else if t.greedy < 0 then err "greedy must be >= 0"
  else if t.backend <> "aserta" && t.backend <> "serpp" then
    err "unknown backend %S (want aserta or serpp)" t.backend
  else if t.backend = "serpp" && t.op = Rate then
    err "the rate op requires the aserta backend"
  else if t.backend = "serpp" && t.op = Odc then
    err "the odc op is backend-free and rejects backend=serpp"
  else if t.odc_mode <> "exhaustive" && t.odc_mode <> "sampled" then
    err "unknown odc_mode %S (want exhaustive or sampled)" t.odc_mode
  else if
    (not (Float.is_finite t.odc_threshold))
    || t.odc_threshold < 0. || t.odc_threshold > 1.
  then err "odc_threshold must be in [0, 1]"
  else if t.eval_tier <> "exact" && t.eval_tier <> "serpp" then
    err "unknown eval_tier %S (want exact or serpp)" t.eval_tier
  else if t.tier_k < 1 then err "tier_k must be >= 1 (got %d)" t.tier_k
  else if
    match t.deadline_s with Some d -> (not (Float.is_finite d)) || d <= 0. | None -> false
  then err "deadline_s must be finite and positive"
  else if (not (Float.is_finite t.q_slope)) || t.q_slope <= 0. then
    err "q_slope must be finite and positive (got %g)" t.q_slope
  else if
    match t.clock with Some c -> (not (Float.is_finite c)) || c <= 0. | None -> false
  then err "clock must be finite and positive"
  else
    match List.find_opt (fun v -> not (v > 0. && v <= 2.)) t.vdds with
    | Some v -> err "vdds: %g V is outside (0, 2]" v
    | None -> (
      match
        List.find_opt (fun v -> (not (Float.is_finite v)) || v <= 0.) t.vths
      with
      | Some v -> err "vths: %g V must be finite and positive" v
      | None ->
        (* the baseline corner needs a Vth below the nominal VDD *)
        let axes = menu_axes ~vdds:t.vdds ~vths:t.vths in
        let vdd = Ser_cell.Library.nominal_vdd axes in
        if List.exists (fun v -> v < vdd) axes.Ser_cell.Library.vths then Ok t
        else err "vths: none lies below the nominal VDD %g V" vdd)

(* --------------------- the field declarations -------------------- *)

(* How one field's values read and print, as a JSON member and as a
   command-line argument. [enc] = None omits the member. *)
type 'a ty = {
  conv : 'a Cmdliner.Arg.conv;
  enc : 'a -> Json.t option;
  dec : string -> Json.t -> ('a, string) result;  (* member name first *)
}

let ty conv kind enc dec =
  {
    conv;
    enc = (fun v -> Some (enc v));
    dec =
      (fun name j ->
        Option.to_result (dec j)
          ~none:(Printf.sprintf "request field %S must be %s" name kind));
  }

let int_ty = ty Cmdliner.Arg.int "an integer" Json.int Json.to_int_opt
let num_ty =
  ty Cmdliner.Arg.float "a number" (fun v -> Json.Num v) Json.to_float_opt

let str_ty conv = ty conv "a string" (fun s -> Json.Str s) Json.to_str_opt
let enum_ty names =
  str_ty (Cmdliner.Arg.enum (List.map (fun s -> (s, s)) names))

let bool_ty =
  ty Cmdliner.Arg.bool "a boolean"
    (fun b -> Json.Bool b)
    (function Json.Bool b -> Some b | _ -> None)

let floats_ty =
  let all_nums items =
    List.fold_right
      (fun x acc ->
        Option.bind acc (fun vs ->
            Option.map (fun v -> v :: vs) (Json.to_float_opt x)))
      items (Some [])
  in
  ty
    Cmdliner.Arg.(list float)
    "a list of numbers"
    (fun vs -> Json.List (List.map (fun v -> Json.Num v) vs))
    (function Json.List items -> all_nums items | _ -> None)

let fault_ty =
  let str = str_ty Cmdliner.Arg.string in
  {
    conv =
      Cmdliner.Arg.conv
        ( (fun s -> Result.map_error (fun m -> `Msg m) (fault_of_string s)),
          fun ppf f -> Format.pp_print_string ppf (fault_to_string f) );
    enc = (fun f -> str.enc (fault_to_string f));
    dec = (fun name j -> Result.bind (str.dec name j) fault_of_string);
  }

(* an optional field: [None] is an absent member / flag *)
let opt ty =
  {
    conv = Cmdliner.Arg.some ty.conv;
    enc = (function Some v -> ty.enc v | None -> None);
    dec = (fun name j -> Result.map Option.some (ty.dec name j));
  }

(* One request field, declared once: JSON member name, flag name (the
   member name with '-' for '_' unless given), value type, flag doc. *)
type field =
  | F : {
      name : string;
      flag : string;
      docv : string option;
      doc : string;
      ty : 'a ty;
      get : t -> 'a;
      set : t -> 'a -> t;
    }
      -> field

let field ?flag ?docv name ty doc get set =
  let flag =
    Option.value flag ~default:(String.map (function '_' -> '-' | c -> c) name)
  in
  F { name; flag; docv; doc; ty; get; set }

let id =
  field "id" ~docv:"ID" (opt (str_ty Cmdliner.Arg.string))
    "Idempotency key: a repeated id replays the stored response instead \
     of re-executing."
    (fun r -> r.id)
    (fun r id -> { r with id })

let backend =
  field "backend" ~docv:"NAME" (enum_ty [ "aserta"; "serpp" ])
    "SER estimator: aserta (Monte-Carlo expected widths, the paper's \
     method) or serpp (single-pass propagation-probability profiles; \
     vectorless, 15-40x faster, upper-bound tendency under \
     reconvergence)."
    (fun r -> r.backend)
    (fun r backend -> { r with backend })

let vectors =
  field "vectors" int_ty
    "Random vectors for P_ij (for the sampled screen under odc)."
    (fun r -> r.vectors)
    (fun r vectors -> { r with vectors })

let charge =
  field "charge" num_ty "Injected charge, fC."
    (fun r -> r.charge)
    (fun r charge -> { r with charge })

let top =
  field "top" int_ty
    "Softest gates (analyze) or FIT contributors (rate) to list."
    (fun r -> r.top)
    (fun r top -> { r with top })

let vdds =
  field "vdds" ~docv:"V,..." floats_ty
    "Supply-voltage menu (default 0.8,1.0,1.2)."
    (fun r -> r.vdds)
    (fun r vdds -> { r with vdds })

let vths =
  field "vths" ~docv:"V,..." floats_ty
    "Threshold-voltage menu (default 0.1,0.2,0.3)."
    (fun r -> r.vths)
    (fun r vths -> { r with vths })

let evals =
  field "evals" int_ty "Nullspace-search cost evaluations (optimize)."
    (fun r -> r.evals)
    (fun r evals -> { r with evals })

let greedy =
  field "greedy" int_ty "Greedy refinement passes (optimize)."
    (fun r -> r.greedy)
    (fun r greedy -> { r with greedy })

let eval_tier =
  field "eval_tier" ~docv:"TIER" (enum_ty [ "exact"; "serpp" ])
    "Greedy-menu evaluation economy: exact measures every candidate; \
     serpp ranks each menu with the cheap propagation-probability \
     estimate and spends exact evaluations only on the top K (see \
     --tier-k). The accept decision always compares exact costs; saved \
     evaluations are counted in the sertopt.exact_evals_saved metric."
    (fun r -> r.eval_tier)
    (fun r eval_tier -> { r with eval_tier })

let tier_k =
  field "tier_k" ~docv:"K" int_ty
    "Exact evaluations kept per greedy menu under --eval-tier serpp; at \
     least 1."
    (fun r -> r.tier_k)
    (fun r tier_k -> { r with tier_k })

let budget_evals =
  field "budget_evals" ~docv:"N" (opt int_ty)
    "Hard cap on cost evaluations; the best-so-far incumbent is returned \
     (flagged degraded) when it is hit."
    (fun r -> r.budget_evals)
    (fun r budget_evals -> { r with budget_evals })

let clock =
  field "clock" ~docv:"PS" (opt num_ty)
    "Clock period for rate (default 1.2x critical delay)."
    (fun r -> r.clock)
    (fun r clock -> { r with clock })

let q_slope =
  field "q_slope" num_ty
    "Charge-collection slope of the spectrum, fC (rate)."
    (fun r -> r.q_slope)
    (fun r q_slope -> { r with q_slope })

let deadline_s =
  field "deadline_s" ~flag:"deadline" ~docv:"SECONDS" (opt num_ty)
    "Per-request deadline enforced by the daemon."
    (fun r -> r.deadline_s)
    (fun r deadline_s -> { r with deadline_s })

let isolate =
  field "isolate" ~docv:"BOOL" (opt bool_ty)
    "Force (true) or forbid (false) worker isolation; default: the \
     daemon's per-op policy."
    (fun r -> r.isolate)
    (fun r isolate -> { r with isolate })

let fault =
  field "fault" ~docv:"F" (opt fault_ty)
    "Test-only fault injection, run by the isolated worker: hang, crash, \
     oom, garbage, exit:N, flaky:N (crash on attempts below N) or \
     sleep:MS (the one fault the daemon also runs inline)."
    (fun r -> r.fault)
    (fun r fault -> { r with fault })

let odc_mode =
  field "odc_mode" ~flag:"mode" ~docv:"MODE"
    (enum_ty [ "exhaustive"; "sampled" ])
    "odc: exhaustive (sampled screen plus support-limited exhaustive \
     proofs for zero-detection sites, the default) or sampled (screen \
     only, no proofs)."
    (fun r -> r.odc_mode)
    (fun r odc_mode -> { r with odc_mode })

let odc_seed =
  field "odc_seed" ~flag:"seed" int_ty "Screen RNG seed (odc)."
    (fun r -> r.odc_seed)
    (fun r odc_seed -> { r with odc_seed })

let odc_threshold =
  field "odc_threshold" ~flag:"threshold" ~docv:"T" num_ty
    "Observability cutoff in [0, 1] for the low-observability site count \
     of the odc summary (and of downstream ODC-seeded optimization)."
    (fun r -> r.odc_threshold)
    (fun r odc_threshold -> { r with odc_threshold })

(* every field but id, in canonical JSON order *)
let fields =
  [
    backend; vectors; charge; top; vdds; vths; evals; greedy; eval_tier;
    tier_k; budget_evals; clock; q_slope; deadline_s; isolate; fault;
    odc_mode; odc_seed; odc_threshold;
  ]

(* ---------------------------- codec -------------------------------- *)

let members t fields =
  List.filter_map
    (fun (F f) -> Option.map (fun j -> (f.name, j)) (f.ty.enc (f.get t)))
    fields

let source_json = function
  | Spec s -> Json.Obj [ ("spec", Json.Str s) ]
  | Inline_bench text -> Json.Obj [ ("bench", Json.Str text) ]

let to_json t =
  Json.Obj
    (members t [ id ]
    @ [
        ("op", Json.Str (op_to_string t.op)); ("circuit", source_json t.source);
      ]
    @ members t fields)

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

let source_of_json j =
  match Json.member "circuit" j with
  | Some (Json.Str s) when s <> "" -> Ok (Spec s)
  | Some (Json.Obj _ as o) -> (
    match (Json.member "spec" o, Json.member "bench" o) with
    | Some (Json.Str s), _ when s <> "" -> Ok (Spec s)
    | _, Some (Json.Str text) when text <> "" -> Ok (Inline_bench text)
    | _ -> err "request circuit object needs a nonempty \"spec\" or \"bench\"")
  | Some _ -> err "request field \"circuit\" must be a string or an object"
  | None -> err "request is missing the \"circuit\" field"

(* an absent or null member keeps the default *)
let decode j r (F f) =
  match Json.member f.name j with
  | None | Some Json.Null -> Ok r
  | Some v -> (
    match f.ty.dec f.name v with
    | Ok v -> Ok (f.set r v)
    | Error msg -> err "%s" msg)

let of_json j =
  match j with
  | Json.Obj _ ->
    let* op =
      match Json.member "op" j with
      | Some (Json.Str s) -> (
        match op_of_string s with
        | Some op -> Ok op
        | None -> err "unknown op %S (want analyze, optimize, rate or odc)" s)
      | Some _ -> err "request field \"op\" must be a string"
      | None -> err "request is missing the \"op\" field"
    in
    let* source = source_of_json j in
    let* t =
      List.fold_left
        (fun acc f -> Result.bind acc (fun r -> decode j r f))
        (Ok (defaults op source)) (id :: fields)
    in
    validate t
  | _ -> err "request must be a JSON object"

let of_file path =
  let fail msg =
    Error (Diag.make ~subsystem ~context:[ Diag.file path ] msg)
  in
  match Json.of_file path with
  | Error (Json.Io msg) -> fail msg
  | Error (Json.Syntax msg) -> fail ("unreadable request file: " ^ msg)
  | Ok j ->
    Result.map_error
      (fun d -> Diag.with_context d [ Diag.file path ])
      (of_json j)

let to_file path t =
  Result.map_error
    (fun msg -> Diag.make ~subsystem ~context:[ Diag.file path ] msg)
    (Json.to_file ~indent:false path (to_json t))

(* The fields that determine an op's payload, in canonical order. The
   odc op needs no library: the vdd/vth axes and the charge cannot
   change its answer and stay out of its cache identity. The backend
   is part of the analyze identity: the two estimators legitimately
   answer differently for one circuit. *)
let payload_fields = function
  | Analyze -> [ vectors; backend; charge; top; vdds; vths ]
  | Optimize ->
    [ vectors; evals; greedy; eval_tier; tier_k; budget_evals; vdds; vths ]
  | Rate -> [ vectors; clock; q_slope; top; vdds; vths ]
  | Odc -> [ vectors; odc_mode; odc_seed; odc_threshold ]

let params_json t =
  Json.Obj
    (("op", Json.Str (op_to_string t.op)) :: members t (payload_fields t.op))

(* ---------------------------- flags -------------------------------- *)

module Flags = struct
  open Cmdliner

  let flag_info (F f) = Arg.info [ f.flag ] ?docv:f.docv ~doc:f.doc

  (* always parsed; an absent flag takes its value from [defaults] *)
  let with_default defaults (F f as fld) =
    Term.(
      const (fun v r -> f.set r v)
      $ Arg.(value & opt f.ty.conv (f.get defaults) & flag_info fld))

  (* overrides only when given *)
  let optional (F f as fld) =
    Term.(
      const (fun v r -> Option.fold ~none:r ~some:(f.set r) v)
      $ Arg.(value & opt (some f.ty.conv) None & flag_info fld))

  let compose terms =
    List.fold_left
      (fun acc t -> Term.(const (fun a b r -> b (a r)) $ acc $ t))
      (Term.const Fun.id) terms

  let with_defaults d fields = compose (List.map (with_default d) fields)

  let one_shot op =
    with_defaults (defaults op (Spec ""))
      (match op with
      (* the one-shot rate command has never taken the vdd/vth menus *)
      | Rate -> [ vectors; clock; q_slope; top ]
      | Analyze | Optimize | Odc -> payload_fields op)

  let client = compose (List.map optional (id :: fields))

  let batch =
    let cmd =
      Arg.(
        value
        & opt
            (enum
               (List.map
                  (fun op -> (op_to_string op, op))
                  [ Analyze; Optimize; Rate; Odc ]))
            Analyze
        & info [ "cmd" ] ~docv:"CMD"
            ~doc:"Per-job command: analyze, optimize, rate or odc.")
    in
    (* batch's own lighter defaults: every job is one short run *)
    let base =
      { (defaults Analyze (Spec "")) with vectors = 2000; evals = 60 }
    in
    Term.(
      const (fun op override source ->
          { (override (defaults op source)) with greedy = 1 })
      $ cmd
      $ with_defaults base [ vectors; evals ])

  let axes = with_defaults (defaults Analyze (Spec "")) [ vdds; vths ]
end
