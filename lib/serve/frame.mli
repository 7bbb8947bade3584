(** Length-framed JSON: the serve daemon's wire format.

    Every message is a 4-byte big-endian payload length followed by
    that many bytes of JSON text. Framing keeps the stream
    self-synchronising — a malformed payload poisons one frame, not the
    connection — and lets the receiver reject an oversized frame from
    its header alone, before buffering a byte of the body.

    The codec is total: any byte sequence decodes to a frame, a
    "need more input" indication, or a typed {!error} — never an
    exception. The pure {!encode}/{!decode} pair is the property-tested
    core; {!read_frame}/{!write_frame} wrap it over file descriptors
    with deadlines for the client side. *)

val header_bytes : int
(** 4 *)

val default_max_frame : int
(** 16 MiB — comfortably above any inline netlist this tool handles,
    far below anything that could wedge the daemon's memory. *)

type error =
  | Closed  (** peer closed before a complete frame arrived *)
  | Bad_length of { len : int; max : int }
      (** header announces a negative or too-large payload; the stream
          cannot be resynchronised after it *)
  | Bad_json of string  (** well-framed but unparseable payload *)
  | Timeout  (** deadline expired mid-frame *)
  | Io of string  (** socket-level failure *)

val error_to_string : error -> string

(** {1 Pure codec} *)

val encode : Ser_util.Json.t -> string
(** Header + compact JSON rendering. *)

val encode_raw : string -> string
(** Frame an arbitrary payload (tests use non-JSON bodies). *)

type decoded =
  | Complete of { payload : string; consumed : int }
      (** one whole frame; [consumed] bytes of input were used *)
  | Incomplete
      (** a valid prefix of a frame — feed more bytes *)
  | Invalid of error
      (** [Bad_length] — the header itself is unusable *)

val decode : ?max:int -> string -> decoded
(** Examine the (prefix of a) stream in [s]. Total. [max] defaults to
    {!default_max_frame}. *)

(** {1 File-descriptor transport} *)

val read_frame :
  ?max:int ->
  ?deadline:float ->
  Unix.file_descr ->
  (Ser_util.Json.t, error) result
(** Blocking read of exactly one frame, parsed as JSON. [deadline] is
    an absolute {!Ser_util.Mono.now} instant; expiry yields
    [Error Timeout]. *)

val write_frame :
  Unix.file_descr -> Ser_util.Json.t -> (unit, error) result
(** Write one frame; [EPIPE]/reset come back as [Error (Io _)] (the
    caller must have SIGPIPE ignored, which {!Server.run} and
    {!Client} arrange). *)
