(** Minimal JSON emitter and reader (no external dependency) for
    machine-readable report export and checkpoint restore. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val to_string : ?indent:bool -> t -> string
(** Serialise; [indent] (default true) pretty-prints with 2-space
    indentation. Numbers render as integers when exact, otherwise with
    up to 6 significant digits. NaN/infinities become [null], and every
    object field holding one additionally emits a
    ["<field>_nonfinite": true] companion marker so poisoned reports
    are detectable downstream. *)

val of_string : string -> (t, string) result
(** Parse a JSON document. Errors carry the byte offset. Total: never
    raises on any input. *)

type file_error =
  | Io of string  (** the file could not be opened or read *)
  | Syntax of string  (** the bytes are not one JSON document *)

val of_file : string -> (t, file_error) result
(** Read and parse a whole file. Total: never raises. *)

val to_file : ?indent:bool -> string -> t -> (unit, string) result
(** Write [to_string t] plus a trailing newline to [path]. I/O errors
    ([Sys_error]) surface as [Error msg]; never raises. *)

val int : int -> t

val field_opt : string -> t option -> (string * t) list
(** Helper: an optional object field ([[]] when [None]). *)

(** {1 Accessors} (for checkpoint restore) *)

val member : string -> t -> t option
(** Field lookup on [Obj]; [None] otherwise. *)

val to_float_opt : t -> float option
val to_int_opt : t -> int option
val to_str_opt : t -> string option
val to_list_opt : t -> t list option
