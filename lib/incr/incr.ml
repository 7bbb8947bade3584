module Circuit = Ser_netlist.Circuit
module Assignment = Ser_sta.Assignment
module Sta = Ser_sta.Incr_sta
module Analysis = Aserta.Analysis
module Ser_rate = Aserta.Ser_rate

type ctx = {
  context : Analysis.context;
  config : Analysis.config;
  masking : Analysis.masking;
  samples : float array;
  fanout : int array array;
  rate : Ser_rate.quadrature option;
      (* the charge spectrum of a spectrum handle, with its frozen
         latching clock *)
}

type gates = {
  gen_width : float array;
  expected_width : float array array;
  fit : float array;  (* per-gate FIT under [rate]; empty without one *)
}

(* Ser_rate.run's per-gate term, from the handle's state. *)
let refresh_fit x (sta : Sta.t) tables g q id =
  match (sta.cells.(id), sta.glitch.(id)) with
  | Some cell, Some glitch ->
    g.fit.(id) <-
      Ser_rate.gate_rate q glitch
        ~node_cap:(sta.loads.(id) +. Ser_cell.Library.output_cap sta.lib cell)
        ~p1:x.masking.probs.(id) ~area:sta.cell_area.(id) ~samples:x.samples
        ~po:sta.circuit.po_pos.(id) ~rows:tables.(id)
  | _ -> invalid_arg "Incr: primary input has no cell"

include Cone.Make (struct
  type nonrec ctx = ctx
  type row = float array array
  type run = Analysis.t
  type nonrec gates = gates

  let name = "Incr"
  let span = Some "incr.update"

  let counter = function
    | "rows_recomputed" -> "incr.tables_recomputed"
    | "rows_cutoff" -> "incr.tables_cutoff"
    | f -> "incr." ^ f

  let samples x = x.samples
  let readers x = x.fanout
  let row x ~brackets ~rows id = Analysis.ws_table x.context ~brackets ~tables:rows id

  let same_row a b =
    a == b || (Array.length a = Array.length b && Array.for_all2 Sta.same_row a b)

  let gate x (sta : Sta.t) tables g estimate id =
    Analysis.gate_unreliability x.context ~tables ~w_low:sta.glitch_low.(id)
      ~w_high:sta.glitch_high.(id) ~area:sta.cell_area.(id)
      ~gen_width:g.gen_width ~expected_width:g.expected_width
      ~unreliability:estimate id;
    match x.rate with Some q -> refresh_fit x sta tables g q id | None -> ()

  let run x lib asg = Analysis.run_context x.context lib asg
  let parts (a : Analysis.t) = (a.timing, a.tables, a.unreliability)

  let adopt x sta tables g (a : Analysis.t) =
    let n = Array.length g.gen_width in
    Array.blit a.gen_width 0 g.gen_width 0 n;
    Array.blit a.expected_width 0 g.expected_width 0 n;
    Option.iter
      (fun q ->
        for id = 0 to n - 1 do
          if not (Circuit.is_input a.circuit id) then refresh_fit x sta tables g q id
        done)
      x.rate

  let copy g =
    {
      gen_width = Array.copy g.gen_width;
      expected_width = Array.copy g.expected_width;
      fit = Array.copy g.fit;
    }

  let blit_gate src dst id =
    dst.gen_width.(id) <- src.gen_width.(id);
    dst.expected_width.(id) <- src.expected_width.(id);
    if Array.length src.fit > 0 then dst.fit.(id) <- src.fit.(id)
end)

type metrics = Sta.metrics = {
  m_unreliability : float;
  m_delay : float;
  m_energy : float;
  m_area : float;
}

let of_analysis ?rate lib asg (a : Analysis.t) =
  let c = Assignment.circuit asg in
  if a.circuit != c then
    invalid_arg "Incr.of_analysis: analysis is for a different circuit";
  let n = Circuit.node_count c in
  make ~env:a.config.env ~charge:a.config.charge lib asg
    {
      context = a.context;
      config = a.config;
      masking = a.masking;
      samples = a.samples;
      fanout = Array.map (fun (nd : Circuit.node) -> nd.fanout) c.nodes;
      rate;
    }
    {
      gen_width = Array.make n 0.;
      expected_width = Array.make n [||];
      fit = (if Option.is_none rate then [||] else Array.make n 0.);
    }
    a

let create ?rate ~config lib asg masking =
  of_analysis ?rate lib asg (Analysis.run_electrical config lib asg masking)

let cell t id =
  match t.sta.cells.(id) with
  | Some p -> p
  | None -> invalid_arg "Incr.cell: primary input has no cell"

let unreliability t id = t.estimate.(id)
let core t = t.sta
let brackets t id = t.brackets.(id)
let fit t id = if Option.is_none t.ctx.rate then 0. else t.gates.fit.(id)

(* the spectrum total folds as Ser_rate.run does *)
let metrics t =
  Sta.metrics t.sta
    ~unreliability:
      (if Option.is_none t.ctx.rate then total t else Ser_util.Floatx.sum t.gates.fit)

let timing t = Sta.timing t.sta

let snapshot t =
  {
    Analysis.config = t.ctx.config;
    circuit = t.sta.circuit;
    masking = t.ctx.masking;
    timing = timing t;
    gen_width = Array.copy t.gates.gen_width;
    expected_width = Array.copy t.gates.expected_width;
    unreliability = Array.copy t.estimate;
    total = total t;
    samples = t.ctx.samples;
    tables = Array.copy t.rows;
    context = t.ctx.context;
  }
