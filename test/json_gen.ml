(* Arbitrary JSON trees and single-field mutations of valid documents,
   for the totality properties of the JSON decoders: a decoder fed
   either must return a value or a typed error, never raise. *)

module Json = Ser_util.Json

(* Member names and strings the decoders look for, so generated
   objects reach past the first field check. *)
let keys =
  [
    "format"; "circuit"; "digest"; "mode"; "vectors"; "seed"; "pi_cap";
    "sites"; "gate"; "class"; "detected"; "tested"; "support"; "obs";
    "obs_ub"; "ev"; "manifest"; "jobs"; "shard"; "shards"; "job";
    "attempt"; "detail"; "backoff_s"; "status"; "payload"; "ok"; "failed";
    "degraded"; "interrupted"; "op"; "id"; "spec"; "bench"; "backend";
    "error"; "diag"; "message"; "cache_hit"; "elapsed_s"; "replayed";
    "cost"; "evals"; "gates"; "name"; "kind"; "fanin"; "size"; "length";
    "vdd"; "vth"; "traceEvents"; "otherData"; "dropped"; "ph"; "ts";
    "dur"; "pid"; "tid"; "args";
  ]

let words =
  [
    ""; "odc-report-v1"; "exhaustive"; "sampled"; "proven-masked";
    "observed"; "batch_start"; "done"; "started"; "attempt_failed";
    "batch_end"; "analyze"; "optimize"; "odc"; "rate"; "c17"; "serpp";
    "aserta"; "exact"; "sleep:-1"; "exit:x"; "overloaded"; "NAND"; "10";
    "B"; "E"; "X"; "M";
  ]

let num =
  QCheck.Gen.(
    oneof
      [
        float;
        map float_of_int (int_range (-3) 70_000);
        oneofl
          [
            Float.nan; Float.infinity; Float.neg_infinity; -0.; 0.5; 1e300;
            -1e300; 4.6e18; -4.7e18; Float.max_float; Float.min_float;
          ];
      ])

let leaf =
  QCheck.Gen.(
    frequency
      [
        (1, return Json.Null);
        (1, map (fun b -> Json.Bool b) bool);
        (3, map (fun x -> Json.Num x) num);
        (3, map (fun s -> Json.Str s) (oneof [ oneofl words; string_small ]));
      ])

let json : Json.t QCheck.Gen.t =
  QCheck.Gen.(
    sized_size (int_bound 12)
    @@ fix (fun self n ->
           if n = 0 then leaf
           else
             frequency
               [
                 (2, leaf);
                 (1, map (fun l -> Json.List l) (list_size (int_bound 4) (self (n / 2))));
                 ( 2,
                   map
                     (fun fs -> Json.Obj fs)
                     (list_size (int_bound 5)
                        (pair (oneof [ oneofl keys; string_small ]) (self (n / 2)))) );
               ]))

(* Object members and list items of [doc], counted in preorder. *)
let rec positions = function
  | Json.Obj fs -> List.fold_left (fun a (_, v) -> a + 1 + positions v) 0 fs
  | Json.List l -> List.fold_left (fun a v -> a + 1 + positions v) 0 l
  | Json.Null | Json.Bool _ | Json.Num _ | Json.Str _ -> 0

(* [doc] with its [k]-th position replaced by [v], or removed. *)
let edit k v doc =
  let k = ref k in
  let at x rest =
    let here = !k = 0 in
    decr k;
    if here then v else Some (rest x)
  in
  let rec go = function
    | Json.Obj fs ->
      Json.Obj
        (List.filter_map
           (fun (name, x) -> Option.map (fun y -> (name, y)) (at x go))
           fs)
    | Json.List l -> Json.List (List.filter_map (fun x -> at x go) l)
    | leaf -> leaf
  in
  go doc

(* One of [valid] as is, with one member or item removed or replaced
   by an arbitrary tree, or an arbitrary tree outright. *)
let doc ~valid =
  let mutated =
    QCheck.Gen.(
      oneofl valid >>= fun d ->
      triple (int_bound (max 0 (positions d - 1))) (option json) (return d)
      >|= fun (k, v, d) -> edit k v d)
  in
  QCheck.make ~print:(Json.to_string ~indent:false)
    QCheck.Gen.(frequency [ (1, oneofl valid); (4, mutated); (2, json) ])

(* [decode] is total on [doc ~valid]: a value or a typed error, never
   an exception, and a value for each unmutated [valid] document. *)
let total_prop ~name ~valid decode =
  QCheck.Test.make ~name ~count:1000 (doc ~valid) (fun j ->
      match decode j with
      | Ok _ -> true
      | Error _ when List.mem j valid ->
        QCheck.Test.fail_reportf "a valid document was rejected"
      | Error _ -> true
      | exception e ->
        QCheck.Test.fail_reportf "decoder raised %s" (Printexc.to_string e))
