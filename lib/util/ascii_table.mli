(** Minimal ASCII table rendering for experiment reports.

    Produces aligned, pipe-separated tables similar to the ones in the
    paper, suitable for terminal output and for pasting into Markdown. *)

type align = Left | Right | Center

type t
(** A table under construction. *)

val create : ?aligns:align list -> string list -> t
(** [create header] starts a table with the given column headers.
    [aligns] defaults to [Right] for every column. *)

val add_row : t -> string list -> unit
(** Append a row. Rows shorter than the header are padded with empty
    cells; longer rows raise [Invalid_argument]. *)

val add_separator : t -> unit
(** Append a horizontal rule row. *)

val render : t -> string
(** Render the table to a string (with trailing newline). *)

val print : t -> unit
(** [print t] writes [render t] to standard output. *)
