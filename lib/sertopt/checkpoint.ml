module Circuit = Ser_netlist.Circuit
module Cell_params = Ser_device.Cell_params
module Assignment = Ser_sta.Assignment
module Json = Ser_util.Json
module Diag = Ser_util.Diag

type t = {
  circuit : string;
  cost : float option;
  evals : int;
  assignment : Assignment.t;
}

let subsystem = "checkpoint"

let to_json ?cost ?(evals = 0) asg =
  let c = Assignment.circuit asg in
  let gates =
    Assignment.fold_gates asg ~init:[] ~f:(fun acc id (p : Cell_params.t) ->
        let nd = Circuit.node c id in
        Json.Obj
          [
            ("name", Json.Str nd.Circuit.name);
            ("kind", Json.Str (Ser_netlist.Gate.to_string p.kind));
            ("fanin", Json.int p.fanin);
            ("size", Json.Num p.size);
            ("length", Json.Num p.length);
            ("vdd", Json.Num p.vdd);
            ("vth", Json.Num p.vth);
          ]
        :: acc)
    |> List.rev
  in
  Json.Obj
    (("circuit", Json.Str (c.Circuit.name))
    :: Json.field_opt "cost" (Option.map (fun v -> Json.Num v) cost)
    @ [ ("evals", Json.int evals); ("gates", Json.List gates) ])

let save path ?cost ?evals asg =
  Json.to_file path (to_json ?cost ?evals asg)
  |> Result.map_error (fun msg ->
         Diag.make ~subsystem ~context:[ ("kind", "io") ] msg)

let fail fmt = Diag.fail ~subsystem fmt

let get what conv j =
  match conv j with Some v -> v | None -> fail "malformed %s field" what

let of_json ~base json =
  let c = Assignment.circuit base in
  let circuit =
    match Json.member "circuit" json with
    | Some (Json.Str s) -> s
    | _ -> fail "missing circuit name"
  in
  if circuit <> c.Circuit.name then
    fail "checkpoint is for circuit %S, not %S" circuit (c.Circuit.name);
  let cost =
    Option.bind (Json.member "cost" json) Json.to_float_opt
  in
  let evals =
    match Option.bind (Json.member "evals" json) Json.to_int_opt with
    | Some n -> n
    | None -> 0
  in
  let gates =
    match Option.bind (Json.member "gates" json) Json.to_list_opt with
    | Some l -> l
    | None -> fail "missing gates array"
  in
  let asg = Assignment.copy base in
  List.iter
    (fun g ->
      let str k = get k Json.to_str_opt (Option.value ~default:Json.Null (Json.member k g)) in
      let num k = get k Json.to_float_opt (Option.value ~default:Json.Null (Json.member k g)) in
      let name = str "name" in
      let id =
        match Circuit.find_by_name c name with
        | Some id -> id
        | None ->
          Diag.fail ~subsystem ~context:[ Diag.gate name ]
            "checkpoint names unknown gate"
      in
      let kind =
        match Ser_netlist.Gate.of_string (str "kind") with
        | Some k -> k
        | None ->
          Diag.fail ~subsystem ~context:[ Diag.gate name ]
            "unknown gate kind %S" (str "kind")
      in
      let fanin = get "fanin" Json.to_int_opt (Option.value ~default:Json.Null (Json.member "fanin" g)) in
      let p =
        try
          Cell_params.v ~size:(num "size") ~length:(num "length")
            ~vdd:(num "vdd") ~vth:(num "vth") kind fanin
        with Invalid_argument msg ->
          Diag.fail ~subsystem ~context:[ Diag.gate name ]
            "invalid cell parameters: %s" msg
      in
      try Assignment.set asg id p
      with Invalid_argument msg ->
        Diag.fail ~subsystem ~context:[ Diag.gate name ]
          "cell does not fit gate: %s" msg)
    gates;
  { circuit; cost; evals; assignment = asg }

let restore path ~base =
  (match Json.of_file path with
  | Error (Json.Io msg | Json.Syntax msg) -> Error (Diag.make ~subsystem msg)
  | Ok json -> Diag.guard ~subsystem (fun () -> of_json ~base json))
  |> Result.map_error (fun d -> Diag.with_context d [ Diag.file path ])
