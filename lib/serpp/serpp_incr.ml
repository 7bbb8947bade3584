module Sta = Ser_sta.Incr_sta

(* Serpp.t's per-gate state beside the profiles and estimates *)
type gates = { gen_width : float array; propagated : float array }

include Ser_incr.Cone.Make (struct
  type ctx = Serpp.context
  type row = float array
  type run = Serpp.t
  type nonrec gates = gates

  let name = "Serpp_incr"

  (* No trace span: the optimizer scores whole menus inside its own
     [sertopt.tier_rank] span, and a span per candidate would only
     crowd the trace buffer. *)
  let span = None

  let counter = function
    | "updates" -> "serpp.incr_updates"
    | "gates_recomputed" -> "serpp.estimates_recomputed"
    | f -> "serpp." ^ f

  let samples (ctx : ctx) = ctx.c_samples
  let readers (ctx : ctx) = ctx.c_succs
  let row ctx ~brackets ~rows id = Serpp.profile_row ctx ~brackets ~profiles:rows id
  let same_row = Sta.same_row

  let gate ctx (sta : Sta.t) profiles g estimate id =
    Serpp.gate_estimate ctx ~w_low:sta.glitch_low.(id)
      ~w_high:sta.glitch_high.(id) ~area:sta.cell_area.(id)
      ~profile:profiles.(id) ~gen_width:g.gen_width ~propagated:g.propagated
      ~estimate id

  let run = Serpp.run_context
  let parts (r : run) = (r.timing, r.profiles, r.estimate)

  let adopt _ _ _ g (r : run) =
    let n = Array.length g.gen_width in
    Array.blit r.gen_width 0 g.gen_width 0 n;
    Array.blit r.propagated 0 g.propagated 0 n

  let copy g =
    { gen_width = Array.copy g.gen_width; propagated = Array.copy g.propagated }

  let blit_gate src dst id =
    dst.gen_width.(id) <- src.gen_width.(id);
    dst.propagated.(id) <- src.propagated.(id)
end)

let of_run lib asg (r : Serpp.t) =
  if r.circuit != Ser_sta.Assignment.circuit asg then
    invalid_arg "Serpp_incr.of_run: run is for a different circuit";
  make ~env:r.config.env ~charge:r.config.charge lib asg
    (Serpp.context ~probs:r.probs r.config r.circuit)
    (let n = Array.length r.estimate in
     { gen_width = Array.make n 0.; propagated = Array.make n 0. })
    r

let estimate t id = t.estimate.(id)
let profile t id = t.rows.(id)
let core t = t.sta
let brackets t id = t.brackets.(id)
let metrics t = Sta.metrics t.sta ~unreliability:(total t)
