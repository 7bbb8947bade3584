type align = Left | Right | Center

type row = Cells of string list | Separator

type t = {
  header : string list;
  aligns : align array;
  mutable rows : row list; (* reversed *)
}

let create ?aligns header =
  let n = List.length header in
  let aligns =
    match aligns with
    | None -> Array.make n Right
    | Some l ->
      let a = Array.make n Right in
      List.iteri (fun i x -> if i < n then a.(i) <- x) l;
      a
  in
  { header; aligns; rows = [] }

let add_row t cells =
  let n = List.length t.header in
  let k = List.length cells in
  if k > n then invalid_arg "Ascii_table.add_row: too many cells";
  let cells = if k < n then cells @ List.init (n - k) (fun _ -> "") else cells in
  t.rows <- Cells cells :: t.rows

let add_separator t = t.rows <- Separator :: t.rows

let pad align width s =
  let len = String.length s in
  if len >= width then s
  else
    let gap = width - len in
    match align with
    | Left -> s ^ String.make gap ' '
    | Right -> String.make gap ' ' ^ s
    | Center ->
      let l = gap / 2 in
      String.make l ' ' ^ s ^ String.make (gap - l) ' '

let render t =
  let rows = List.rev t.rows in
  let ncols = List.length t.header in
  let widths = Array.make ncols 0 in
  let measure cells =
    List.iteri (fun i c -> widths.(i) <- max widths.(i) (String.length c)) cells
  in
  measure t.header;
  List.iter (function Cells c -> measure c | Separator -> ()) rows;
  let buf = Buffer.create 1024 in
  let emit_cells cells =
    Buffer.add_string buf "| ";
    List.iteri
      (fun i c ->
        if i > 0 then Buffer.add_string buf " | ";
        Buffer.add_string buf (pad t.aligns.(i) widths.(i) c))
      cells;
    Buffer.add_string buf " |\n"
  in
  let emit_rule () =
    Buffer.add_char buf '|';
    Array.iter
      (fun w ->
        Buffer.add_string buf (String.make (w + 2) '-');
        Buffer.add_char buf '|')
      widths;
    Buffer.add_char buf '\n'
  in
  emit_cells t.header;
  emit_rule ();
  List.iter (function Cells c -> emit_cells c | Separator -> emit_rule ()) rows;
  Buffer.contents buf

let print t = print_string (render t)
