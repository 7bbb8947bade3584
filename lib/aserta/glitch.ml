let[@inline] propagate ~delay ~width =
  let width = Float.max 0. width in
  if width < delay then 0.
  else if width < 2. *. delay then 2. *. (width -. delay)
  else width

let survives ~delay ~width = width >= delay

let chain ~delays ~width =
  Array.fold_left (fun w d -> propagate ~delay:d ~width:w) width delays

module Amplitude = struct
  let eq1 = propagate

  type t = {
    amplitude : float;
    width : float;
  }

  let full_swing ~vdd width = { amplitude = vdd; width = Float.max 0. width }

  let effective_width ~vdd g =
    if g.amplitude >= vdd /. 2. then g.width else 0.

  (* Triangular pulse of peak [a] and half-amplitude width [w]: the time
     it spends above an absolute level [l] is 2w(1 - l/a). *)
  let time_above ~level g =
    if g.amplitude <= level then 0.
    else 2. *. g.width *. (1. -. (level /. g.amplitude))

  let propagate ~delay ~vdd g =
    let t_in = time_above ~level:(vdd /. 2.) g in
    if t_in <= 0. then { amplitude = 0.; width = 0. }
    else begin
      let width = eq1 ~delay ~width:t_in in
      (* the gate needs ~2 delays of sustained drive for a full output
         swing; shorter drive leaves the output short of the rail *)
      let amplitude = vdd *. Float.min 1. (t_in /. (2. *. delay)) in
      if amplitude < vdd /. 2. || width <= 0. then { amplitude = 0.; width = 0. }
      else { amplitude; width }
    end

  let chain ~delays ~vdd g =
    Array.fold_left (fun acc d -> propagate ~delay:d ~vdd acc) g delays
end
