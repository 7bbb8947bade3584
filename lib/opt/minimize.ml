type result = {
  x : float array;
  fx : float;
  evals : int;
  trace : float list;
  degraded : bool;
}

(* Budget plumbing: the initial point is always evaluated (so there is
   always a valid result to return), every further evaluation first
   checks the budget and bails out of the search loop when it is
   spent. *)
exception Budget_out

let budget_tick = function None -> () | Some b -> Ser_util.Budget.tick b

let budget_spent = function
  | None -> false
  | Some b -> Ser_util.Budget.exhausted b

let budget_degraded = function
  | None -> false
  | Some b -> Ser_util.Budget.was_exhausted b

(* Pattern-search engine over a non-empty direction set. *)
let pattern_search ~f ~x0 ~directions ~step ~shrink ~min_step ~max_evals
    ~budget =
  let n = Array.length x0 in
  let x = Array.copy x0 in
  let evals = ref 0 in
  let eval p =
    if budget_spent budget then raise Budget_out;
    budget_tick budget;
    incr evals;
    f p
  in
  budget_tick budget;
  incr evals;
  let fx = ref (f x) in
  let trace = ref [ !fx ] in
  let step = ref step in
  let continue = ref true in
  (try
     while !continue && !step >= min_step && !evals < max_evals do
       let improved = ref false in
       Array.iter
         (fun dir ->
           if !evals < max_evals then begin
             let try_sign sign =
               if !evals < max_evals then begin
                 let cand = Array.init n (fun i -> x.(i) +. (sign *. !step *. dir.(i))) in
                 let fc = eval cand in
                 if fc < !fx then begin
                   Array.blit cand 0 x 0 n;
                   fx := fc;
                   trace := fc :: !trace;
                   improved := true;
                   true
                 end
                 else false
               end
               else false
             in
             if not (try_sign 1.) then ignore (try_sign (-1.))
           end)
         directions;
       if not !improved then begin
         step := !step *. shrink;
         if !step < min_step then continue := false
       end
     done
   with Budget_out -> ());
  { x; fx = !fx; evals = !evals; trace = List.rev !trace;
    degraded = budget_degraded budget }

let direction_search ~f ~x0 ~directions ?(step = 1.0) ?(shrink = 0.5)
    ?(min_step = 1e-4) ?(max_evals = 10_000) ?budget () =
  if Array.length directions = 0 then begin
    budget_tick budget;
    let fx0 = f x0 in
    { x = Array.copy x0; fx = fx0; evals = 1; trace = [ fx0 ];
      degraded = budget_degraded budget }
  end
  else pattern_search ~f ~x0 ~directions ~step ~shrink ~min_step ~max_evals ~budget
