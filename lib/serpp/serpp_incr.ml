module Sta = Ser_sta.Incr_sta

include Ser_incr.Cone.Make (struct
  type ctx = Serpp.context
  type row = float array
  type run = Serpp.t
  type gates = unit

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

  let gate ctx (sta : Sta.t) profiles () id =
    let _, _, u =
      Serpp.gate_estimate ctx ~w_low:sta.glitch_low.(id)
        ~w_high:sta.glitch_high.(id) ~area:sta.cell_area.(id)
        ~profile:profiles.(id) id
    in
    u

  let run = Serpp.run_context
  let parts (r : run) = (r.timing, r.profiles, r.estimate)
  let adopt _ _ _ () _ = ()
  let copy () = ()
end)

let of_run lib asg (r : Serpp.t) =
  if r.circuit != Ser_sta.Assignment.circuit asg then
    invalid_arg "Serpp_incr.of_run: run is for a different circuit";
  make ~env:r.config.env ~charge:r.config.charge lib asg
    (Serpp.context ~probs:r.probs r.config r.circuit)
    () r

let estimate t id = t.estimate.(id)
let profile t id = t.rows.(id)
let metrics t = Sta.metrics t.sta ~unreliability:(total t)
