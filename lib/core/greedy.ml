module ML = Matching_list
module Int_map = ML.Int_map

type result = { sigma : Mapping.t; conflict : (int * int) list }

(* Sized lists so that max() comparisons are O(1). *)
type sized = { size : int; items : (int * int) list }

let sized_empty = { size = 0; items = [] }
let cons pair s = { size = s.size + 1; items = pair :: s.items }

type caps = int Int_map.t option

type work =
  | Eval of ML.t * caps
  | Combine of int * int  (* the pair (v, u) whose two branches to merge *)

let m_runs = lazy (Phom_obs.Obs.counter "phom_solver_greedy_runs_total")

let run ?budget ~pick ~mode h0 =
  Phom_obs.Obs.incr (Lazy.force m_runs);
  Phom_obs.Obs.span "greedy" @@ fun () ->
  let budget =
    match budget with Some b -> b | None -> Phom_graph.Budget.unlimited ()
  in
  let caps0 = match mode with `Free -> None | `Capacitated c -> Some c in
  (* the H⁺ branches consume the list in place; the caller keeps its own *)
  let work = ref [ Eval (ML.copy h0, caps0) ] in
  let results : (sized * sized) list ref = ref [] in
  let push_result r = results := r :: !results in
  let pop_result () =
    match !results with
    | r :: rest ->
        results := rest;
        r
    | [] -> assert false
  in
  while !work <> [] do
    match !work with
    | [] -> ()
    | Combine (v, u) :: rest ->
        work := rest;
        (* H⁻ was evaluated second, so its result is on top *)
        let s2, i2 = pop_result () in
        let s1, i1 = pop_result () in
        let sigma = if s1.size + 1 >= s2.size then cons (v, u) s1 else s2 in
        let conflict = if i1.size >= i2.size + 1 then i1 else cons (v, u) i2 in
        push_result (sigma, conflict)
    | Eval (h, caps) :: rest ->
        work := rest;
        (* one tick per evaluated sub-list. When the budget trips, every
           pending branch evaluates to the empty mapping/conflict pair;
           the Combine frames still run, so the overall result is the best
           mapping assembled from the branches explored so far — always a
           valid (capacitated) p-hom mapping, just possibly smaller. *)
        if not (Phom_graph.Budget.tick budget) then
          push_result (sized_empty, sized_empty)
        else if ML.is_empty h then push_result (sized_empty, sized_empty)
        else begin
          (* lines 2–4: v leaves H with u; its other candidates and its
             neighbours' candidates inconsistent with (v, u) go to H⁻ *)
          let v, u = ML.take h pick in
          (* 1-1 / capacitated step: if u is exhausted under the
             hypothesis (v, u), no other node may keep it in good *)
          let caps_plus =
            match caps with
            | None -> None
            | Some c ->
                let remaining = Option.value ~default:1 (Int_map.find_opt u c) - 1 in
                if remaining <= 0 then ML.prune_target h u;
                Some (Int_map.add u remaining c)
          in
          (* h is now H⁺; nothing reads it as the parent list again *)
          let hminus = ML.finish h in
          work :=
            Eval (h, caps_plus) :: Eval (hminus, caps) :: Combine (v, u) :: !work
        end
  done;
  match !results with
  | [ (sigma, conflict) ] ->
      { sigma = Mapping.normalize sigma.items; conflict = conflict.items }
  | _ -> assert false
