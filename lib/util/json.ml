type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

let int i = Num (float_of_int i)

let field_opt name = function Some v -> [ (name, v) ] | None -> []

let escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun ch ->
      match ch with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* The primitive behind Printf's %f/%g conversions, called directly:
   the same bytes without Printf's format interpretation, which cost
   nearly as much as the conversion itself. *)
external format_float : string -> float -> string = "caml_format_float"

let render_num x =
  if Float.is_nan x || x = infinity || x = neg_infinity then "null"
  else if Float.is_integer x && Float.abs x < 1e15 then format_float "%.0f" x
  else format_float "%.6g" x

(* A NaN/Inf field still renders as null (strict JSON), but poisoned
   reports must be detectable downstream: every object field holding a
   non-finite number grows a companion "<field>_nonfinite": true
   marker. *)
let expand_nonfinite fields =
  List.concat_map
    (fun ((k, v) as field) ->
      match v with
      | Num x when not (Float.is_finite x) ->
        [ field; (k ^ "_nonfinite", Bool true) ]
      | _ -> [ field ])
    fields

let to_string ?(indent = true) t =
  let buf = Buffer.create 256 in
  let pad depth = if indent then Buffer.add_string buf (String.make (2 * depth) ' ') in
  let nl () = if indent then Buffer.add_char buf '\n' in
  let rec go depth = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (string_of_bool b)
    | Num x -> Buffer.add_string buf (render_num x)
    | Str s ->
      Buffer.add_char buf '"';
      Buffer.add_string buf (escape s);
      Buffer.add_char buf '"'
    | List [] -> Buffer.add_string buf "[]"
    | List items ->
      Buffer.add_char buf '[';
      nl ();
      List.iteri
        (fun i item ->
          if i > 0 then begin
            Buffer.add_char buf ',';
            nl ()
          end;
          pad (depth + 1);
          go (depth + 1) item)
        items;
      nl ();
      pad depth;
      Buffer.add_char buf ']'
    | Obj [] -> Buffer.add_string buf "{}"
    | Obj fields ->
      let fields = expand_nonfinite fields in
      Buffer.add_char buf '{';
      nl ();
      List.iteri
        (fun i (k, v) ->
          if i > 0 then begin
            Buffer.add_char buf ',';
            nl ()
          end;
          pad (depth + 1);
          Buffer.add_char buf '"';
          Buffer.add_string buf (escape k);
          Buffer.add_string buf "\": ";
          go (depth + 1) v)
        fields;
      nl ();
      pad depth;
      Buffer.add_char buf '}'
  in
  go 0 t;
  Buffer.contents buf

(* ------------------------- parsing ------------------------- *)

exception Parse of int * string

let of_string text =
  let n = String.length text in
  let pos = ref 0 in
  let fail msg = raise (Parse (!pos, msg)) in
  let peek () = if !pos < n then Some text.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n
      && (match text.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      incr pos
    done
  in
  let expect c =
    match peek () with
    | Some x when x = c -> advance ()
    | Some x -> fail (Printf.sprintf "expected %C, got %C" c x)
    | None -> fail (Printf.sprintf "expected %C, got end of input" c)
  in
  let literal word value =
    let l = String.length word in
    if !pos + l <= n && String.sub text !pos l = word then begin
      pos := !pos + l;
      value
    end
    else fail (Printf.sprintf "expected %S" word)
  in
  let parse_string_body () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec loop () =
      if !pos >= n then fail "unterminated string";
      let c = text.[!pos] in
      advance ();
      if c = '"' then Buffer.contents buf
      else if c = '\\' then begin
        if !pos >= n then fail "unterminated escape";
        let e = text.[!pos] in
        advance ();
        (match e with
        | '"' -> Buffer.add_char buf '"'
        | '\\' -> Buffer.add_char buf '\\'
        | '/' -> Buffer.add_char buf '/'
        | 'n' -> Buffer.add_char buf '\n'
        | 'r' -> Buffer.add_char buf '\r'
        | 't' -> Buffer.add_char buf '\t'
        | 'b' -> Buffer.add_char buf '\b'
        | 'f' -> Buffer.add_char buf '\012'
        | 'u' ->
          if !pos + 4 > n then fail "truncated \\u escape";
          let hex = String.sub text !pos 4 in
          pos := !pos + 4;
          (match int_of_string_opt ("0x" ^ hex) with
          | None -> fail "bad \\u escape"
          | Some code ->
            (* keep it byte-oriented: code points < 256 round-trip with
               the emitter's \u00xx control escapes *)
            if code < 256 then Buffer.add_char buf (Char.chr code)
            else Buffer.add_string buf (Printf.sprintf "\\u%04x" code))
        | c -> fail (Printf.sprintf "bad escape \\%c" c));
        loop ()
      end
      else begin
        Buffer.add_char buf c;
        loop ()
      end
    in
    loop ()
  in
  let parse_number () =
    let start = !pos in
    let is_num_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && is_num_char text.[!pos] do
      incr pos
    done;
    let s = String.sub text start (!pos - start) in
    match float_of_string_opt s with
    | Some x -> Num x
    | None -> fail (Printf.sprintf "bad number %S" s)
  in
  let rec parse_value depth =
    if depth > 512 then fail "nesting too deep";
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some 'n' -> literal "null" Null
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some '"' -> Str (parse_string_body ())
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        List []
      end
      else begin
        let items = ref [ parse_value (depth + 1) ] in
        skip_ws ();
        while peek () = Some ',' do
          advance ();
          items := parse_value (depth + 1) :: !items;
          skip_ws ()
        done;
        expect ']';
        List (List.rev !items)
      end
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else begin
        let parse_field () =
          skip_ws ();
          let k = parse_string_body () in
          skip_ws ();
          expect ':';
          let v = parse_value (depth + 1) in
          (k, v)
        in
        let fields = ref [ parse_field () ] in
        skip_ws ();
        while peek () = Some ',' do
          advance ();
          fields := parse_field () :: !fields;
          skip_ws ()
        done;
        expect '}';
        Obj (List.rev !fields)
      end
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some c -> fail (Printf.sprintf "unexpected character %C" c)
  in
  match
    let v = parse_value 0 in
    skip_ws ();
    if !pos <> n then fail "trailing content after value";
    v
  with
  | v -> Ok v
  | exception Parse (p, msg) ->
    Error (Printf.sprintf "JSON parse error at offset %d: %s" p msg)

(* ------------------------- accessors ------------------------- *)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_float_opt = function Num x -> Some x | _ -> None

let to_int_opt = function
  | Num x when Float.is_integer x -> Some (int_of_float x)
  | _ -> None

let to_str_opt = function Str s -> Some s | _ -> None

let to_list_opt = function List l -> Some l | _ -> None

type file_error = Io of string | Syntax of string

let of_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error msg -> Error (Io msg)
  | s -> Result.map_error (fun msg -> Syntax msg) (of_string s)

let to_file ?indent path t =
  match
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () ->
        output_string oc (to_string ?indent t);
        output_char oc '\n';
        flush oc)
  with
  | () -> Ok ()
  | exception Sys_error msg -> Error msg
