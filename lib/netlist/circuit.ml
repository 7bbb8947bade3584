type node = {
  id : int;
  name : string;
  kind : Gate.kind;
  fanin : int array;
  fanout : int array;
}

module Graph = struct
  (* Every array is annotated [int array]: an unannotated one compared
     or indexed through a polymorphic path halves a kernel's speed. *)
  type t = {
    kind : int array;
    fi_off : int array;
    fi : int array;
    fo_off : int array;
    fo : int array;
    level : int array;
    lvl_off : int array;
    po_pos : int array;
    succ : int array;
    pin_at : int array;
    roots : int array;
    mem_off : int array;
    mem : int array;
  }

  let successors g id =
    Array.sub g.fo g.fo_off.(id) (g.fo_off.(id + 1) - g.fo_off.(id))
end

type graph_cache = Graph.t option Atomic.t

type t = {
  name : string;
  nodes : node array;
  inputs : int array;
  outputs : int array;
  po_pos : int array;
  cache : graph_cache;
}

let node_count c = Array.length c.nodes
let gate_count c = node_count c - Array.length c.inputs

let node c id =
  if id < 0 || id >= node_count c then invalid_arg "Circuit.node: bad id";
  c.nodes.(id)

let is_input c id = (node c id).kind = Gate.Input

let is_output c id =
  let _ = node c id in
  c.po_pos.(id) >= 0

let find_by_name c name =
  let n = node_count c in
  let rec loop i =
    if i >= n then None
    else if c.nodes.(i).name = name then Some i
    else loop (i + 1)
  in
  loop 0

let output_index c id =
  if id < 0 || id >= node_count c || c.po_pos.(id) < 0 then None
  else Some c.po_pos.(id)

(* Ids ascend topologically by construction, so a single forward sweep
   computes longest distances from the inputs. *)
let levels_from_inputs c =
  let lv = Array.make (node_count c) 0 in
  Array.iter
    (fun nd ->
      if nd.kind <> Gate.Input then
        lv.(nd.id) <-
          1 + Array.fold_left (fun acc f -> max acc lv.(f)) (-1) nd.fanin)
    c.nodes;
  lv

let levels_to_outputs c =
  let n = node_count c in
  let lv = Array.make n (-1) in
  Array.iter (fun o -> lv.(o) <- 0) c.outputs;
  for id = n - 1 downto 0 do
    let nd = c.nodes.(id) in
    Array.iter
      (fun reader ->
        if lv.(reader) >= 0 then lv.(id) <- max lv.(id) (lv.(reader) + 1))
      nd.fanout
  done;
  lv

let depth c =
  let lv = levels_from_inputs c in
  Array.fold_left (fun acc o -> max acc lv.(o)) 0 c.outputs

let compile_graph c =
  let n = node_count c in
  let nodes = c.nodes in
  let kind = Array.map (fun (nd : node) -> Gate.code nd.kind) nodes in
  let csr (f : node -> int array) =
    let off = Array.make (n + 1) 0 in
    for id = 0 to n - 1 do
      off.(id + 1) <- off.(id) + Array.length (f nodes.(id))
    done;
    let flat = Array.make off.(n) 0 in
    Array.iteri
      (fun id nd -> Array.blit (f nd) 0 flat off.(id) (Array.length (f nd)))
      nodes;
    (off, flat)
  in
  let fi_off, fi = csr (fun nd -> nd.fanin) in
  let fo_off, fo =
    csr (fun nd -> Array.of_list (List.sort_uniq compare (Array.to_list nd.fanout)))
  in
  let level = levels_from_inputs c in
  let n_levels = Array.fold_left max 0 level + 1 in
  let lvl_off = Array.make (n_levels + 1) 0 in
  Array.iter (fun l -> lvl_off.(l + 1) <- lvl_off.(l + 1) + 1) level;
  for l = 1 to n_levels do
    lvl_off.(l) <- lvl_off.(l) + lvl_off.(l - 1)
  done;
  (* A non-input gate is a fanout-free-region member when it is not a
     primary output and drives exactly one pin; every other gate is an
     FFR root. Successors have larger ids, so one descending sweep
     resolves each member's root. *)
  let succ = Array.make n (-1) in
  let pin_at = Array.make n (-1) in
  let root_of = Array.make n (-1) in
  for id = n - 1 downto 0 do
    let nd = nodes.(id) in
    if nd.kind <> Gate.Input then
      if c.po_pos.(id) < 0 && Array.length nd.fanout = 1 then begin
        let s = nd.fanout.(0) in
        let p = ref fi_off.(s) in
        while fi.(!p) <> id do
          incr p
        done;
        succ.(id) <- s;
        pin_at.(id) <- !p;
        root_of.(id) <- root_of.(s)
      end
      else root_of.(id) <- id
  done;
  let mem_off = Array.make (n + 1) 0 in
  for id = 0 to n - 1 do
    if succ.(id) >= 0 then
      mem_off.(root_of.(id) + 1) <- mem_off.(root_of.(id) + 1) + 1
  done;
  for id = 1 to n do
    mem_off.(id) <- mem_off.(id) + mem_off.(id - 1)
  done;
  let mem = Array.make mem_off.(n) 0 in
  let fill = Array.sub mem_off 0 n in
  for id = n - 1 downto 0 do
    if succ.(id) >= 0 then begin
      let r = root_of.(id) in
      mem.(fill.(r)) <- id;
      fill.(r) <- fill.(r) + 1
    end
  done;
  let roots =
    Array.of_list
      (List.filter (fun id -> root_of.(id) = id) (List.init n Fun.id))
  in
  {
    Graph.kind;
    fi_off;
    fi;
    fo_off;
    fo;
    level;
    lvl_off;
    po_pos = c.po_pos;
    succ;
    pin_at;
    roots;
    mem_off;
    mem;
  }

(* The graph is built on first use and published with a
   compare-and-set rather than a [Lazy]: forcing one lazy from two
   domains at once raises [Lazy.Undefined]. Two racing first uses may
   both build it; the loser adopts the winner's value. *)
let graph c =
  match Atomic.get c.cache with
  | Some g -> g
  | None ->
    let g = compile_graph c in
    if Atomic.compare_and_set c.cache None (Some g) then g
    else Option.get (Atomic.get c.cache)

let collect_marked marked =
  let count = Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 marked in
  let out = Array.make count 0 in
  let k = ref 0 in
  Array.iteri
    (fun id b ->
      if b then begin
        out.(!k) <- id;
        incr k
      end)
    marked;
  out

let fanout_cone c id =
  let n = node_count c in
  let _ = node c id in
  let marked = Array.make n false in
  marked.(id) <- true;
  for i = id to n - 1 do
    if marked.(i) then
      Array.iter (fun reader -> marked.(reader) <- true) c.nodes.(i).fanout
  done;
  collect_marked marked

let fanin_cone c id =
  let n = node_count c in
  let _ = node c id in
  let marked = Array.make n false in
  marked.(id) <- true;
  for i = id downto 0 do
    if marked.(i) then
      Array.iter (fun driver -> marked.(driver) <- true) c.nodes.(i).fanin
  done;
  collect_marked marked

let reachable_outputs c id =
  let cone = fanout_cone c id in
  let in_cone = Array.make (node_count c) false in
  Array.iter (fun i -> in_cone.(i) <- true) cone;
  let hits = ref [] in
  Array.iteri (fun pos o -> if in_cone.(o) then hits := pos :: !hits) c.outputs;
  Array.of_list (List.rev !hits)

(* The bench parser accepts declarations in any order, so the digest
   must too: render inputs, outputs and gates as sorted lines. Fanin
   pin order stays as-built — it is semantically significant for the
   electrical model even on symmetric gates. *)
let digest c =
  let b = Buffer.create 1024 in
  Buffer.add_string b "name ";
  Buffer.add_string b c.name;
  Buffer.add_char b '\n';
  let names ids =
    Array.to_list ids
    |> List.map (fun id -> (node c id).name)
    |> List.sort String.compare
  in
  List.iter
    (fun n ->
      Buffer.add_string b "I ";
      Buffer.add_string b n;
      Buffer.add_char b '\n')
    (names c.inputs);
  List.iter
    (fun n ->
      Buffer.add_string b "O ";
      Buffer.add_string b n;
      Buffer.add_char b '\n')
    (names c.outputs);
  let gate_lines =
    Array.to_list c.nodes
    |> List.filter_map (fun (n : node) ->
           if n.kind = Gate.Input then None
           else
             let fanin =
               Array.to_list n.fanin
               |> List.map (fun id -> (node c id).name)
             in
             Some
               (Printf.sprintf "G %s = %s(%s)" n.name
                  (Gate.to_string n.kind)
                  (String.concat "," fanin)))
    |> List.sort String.compare
  in
  List.iter
    (fun l ->
      Buffer.add_string b l;
      Buffer.add_char b '\n')
    gate_lines;
  Digest.to_hex (Digest.string (Buffer.contents b))

type stats = {
  n_inputs : int;
  n_outputs : int;
  n_gates : int;
  depth : int;
  max_fanin : int;
  max_fanout : int;
  kind_counts : (Gate.kind * int) list;
}

let stats c =
  let counts = Hashtbl.create 16 in
  let max_fi = ref 0 and max_fo = ref 0 in
  Array.iter
    (fun nd ->
      max_fi := max !max_fi (Array.length nd.fanin);
      max_fo := max !max_fo (Array.length nd.fanout);
      let cur = Option.value ~default:0 (Hashtbl.find_opt counts nd.kind) in
      Hashtbl.replace counts nd.kind (cur + 1))
    c.nodes;
  let kind_counts =
    List.filter_map
      (fun k ->
        match Hashtbl.find_opt counts k with
        | Some n -> Some (k, n)
        | None -> None)
      Gate.all
  in
  {
    n_inputs = Array.length c.inputs;
    n_outputs = Array.length c.outputs;
    n_gates = gate_count c;
    depth = depth c;
    max_fanin = !max_fi;
    max_fanout = !max_fo;
    kind_counts;
  }

let pp_stats fmt s =
  Format.fprintf fmt "@[<v>inputs: %d@,outputs: %d@,gates: %d@,depth: %d@,max fan-in: %d@,max fan-out: %d@,"
    s.n_inputs s.n_outputs s.n_gates s.depth s.max_fanin s.max_fanout;
  List.iter
    (fun (k, n) -> Format.fprintf fmt "%s: %d@," (Gate.to_string k) n)
    s.kind_counts;
  Format.fprintf fmt "@]"

module Builder = struct
  type proto = {
    p_id : int;
    p_name : string;
    p_kind : Gate.kind;
    p_fanin : int list;
  }

  type t = {
    mutable bname : string;
    mutable protos : proto list; (* reversed *)
    mutable next : int;
    mutable binputs : int list; (* reversed *)
    mutable boutputs : int list; (* reversed *)
    names : (string, int) Hashtbl.t;
  }

  let create ?(name = "circuit") () =
    {
      bname = name;
      protos = [];
      next = 0;
      binputs = [];
      boutputs = [];
      names = Hashtbl.create 64;
    }

  let register_name b name id =
    if Hashtbl.mem b.names name then
      invalid_arg (Printf.sprintf "Circuit.Builder: duplicate name %S" name);
    Hashtbl.replace b.names name id

  let add_input b name =
    let id = b.next in
    register_name b name id;
    b.protos <- { p_id = id; p_name = name; p_kind = Gate.Input; p_fanin = [] } :: b.protos;
    b.binputs <- id :: b.binputs;
    b.next <- id + 1;
    id

  let add_gate b ?name kind fanin =
    if kind = Gate.Input then
      invalid_arg "Circuit.Builder.add_gate: use add_input for primary inputs";
    let arity = List.length fanin in
    if arity < Gate.min_fanin kind || arity > Gate.max_fanin kind then
      invalid_arg
        (Printf.sprintf "Circuit.Builder.add_gate: %s with fan-in %d"
           (Gate.to_string kind) arity);
    List.iter
      (fun f ->
        if f < 0 || f >= b.next then
          invalid_arg "Circuit.Builder.add_gate: unknown fanin id")
      fanin;
    (match kind with
    | Gate.Xor | Gate.Xnor ->
      let sorted = List.sort compare fanin in
      let rec dup = function
        | a :: (b :: _ as rest) -> a = b || dup rest
        | _ -> false
      in
      if dup sorted then
        invalid_arg "Circuit.Builder.add_gate: duplicate fanin pin on XOR/XNOR"
    | Gate.Input | Gate.Buf | Gate.Not | Gate.And | Gate.Nand | Gate.Or
    | Gate.Nor -> ());
    let id = b.next in
    let name =
      match name with
      | Some n -> n
      | None ->
        (* auto-names must not collide with user-chosen names *)
        let rec fresh candidate =
          if Hashtbl.mem b.names candidate then fresh (candidate ^ "_")
          else candidate
        in
        fresh (Printf.sprintf "n%d" id)
    in
    register_name b name id;
    b.protos <- { p_id = id; p_name = name; p_kind = kind; p_fanin = fanin } :: b.protos;
    b.next <- id + 1;
    id

  let set_output b id =
    if id < 0 || id >= b.next then
      invalid_arg "Circuit.Builder.set_output: unknown id";
    if not (List.exists (fun o -> o = id) b.boutputs) then
      b.boutputs <- id :: b.boutputs

  let node_count b = b.next

  let assemble b protos inputs outputs =
    let n = Array.length protos in
    let fanout_lists = Array.make n [] in
    Array.iter
      (fun p ->
        List.iter (fun f -> fanout_lists.(f) <- p.p_id :: fanout_lists.(f)) p.p_fanin)
      protos;
    let nodes =
      Array.map
        (fun p ->
          {
            id = p.p_id;
            name = p.p_name;
            kind = p.p_kind;
            fanin = Array.of_list p.p_fanin;
            fanout = Array.of_list (List.rev fanout_lists.(p.p_id));
          })
        protos
    in
    let po_pos = Array.make n (-1) in
    Array.iteri (fun pos id -> po_pos.(id) <- pos) outputs;
    { name = b.bname; nodes; inputs; outputs; po_pos; cache = Atomic.make None }

  (* The builder's contents in id and declaration order, once it has
     an input and an output. *)
  let parts b =
    let inputs = Array.of_list (List.rev b.binputs) in
    let outputs = Array.of_list (List.rev b.boutputs) in
    if Array.length inputs = 0 then Error "circuit has no primary inputs"
    else if Array.length outputs = 0 then Error "circuit has no primary outputs"
    else Ok (Array.of_list (List.rev b.protos), inputs, outputs)

  let build b =
    match parts b with
    | Error _ as e -> e
    | Ok (protos, inputs, outputs) -> (
      let c = assemble b protos inputs outputs in
      let dangling =
        Array.to_list c.nodes
        |> List.filter (fun (nd : node) ->
               Array.length nd.fanout = 0 && not (is_output c nd.id))
        |> List.map (fun (nd : node) -> nd.name)
      in
      match dangling with
      | [] -> Ok c
      | names ->
        Error
          (Printf.sprintf "dangling nodes (no fanout, not outputs): %s"
             (String.concat ", " names)))

  let build_exn b =
    match build b with Ok c -> c | Error msg -> failwith ("Circuit.Builder.build: " ^ msg)

  let build_trimmed b =
    match parts b with
    | Error _ as e -> e
    | Ok (protos, inputs, outputs) ->
      let n = Array.length protos in
      (* keep = reaches some primary output; inputs are always kept *)
      let keep = Array.make n false in
      Array.iter (fun o -> keep.(o) <- true) outputs;
      for id = n - 1 downto 0 do
        if keep.(id) then List.iter (fun f -> keep.(f) <- true) protos.(id).p_fanin
      done;
      Array.iter (fun i -> keep.(i) <- true) inputs;
      let remap = Array.make n (-1) in
      let next = ref 0 in
      for id = 0 to n - 1 do
        if keep.(id) then begin
          remap.(id) <- !next;
          incr next
        end
      done;
      let protos' =
        Array.to_list protos
        |> List.filter (fun p -> keep.(p.p_id))
        |> List.map (fun p ->
               {
                 p with
                 p_id = remap.(p.p_id);
                 p_fanin = List.map (fun f -> remap.(f)) p.p_fanin;
               })
        |> Array.of_list
      in
      let inputs' = Array.map (fun i -> remap.(i)) inputs in
      let outputs' = Array.map (fun o -> remap.(o)) outputs in
      Ok (assemble b protos' inputs' outputs')
end
