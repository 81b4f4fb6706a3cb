(* an edge of the node; [masks.(j)] holds the row positions that keep it
   while the other endpoint takes its [j]th candidate: [none] until built,
   and [masks] is [[||]] until the edge's first *)
type edge = { slot : int; other : int array; out : bool; mutable masks : Bitset.t array }

type t = { tc2 : Bitmatrix.t; row : int array; edges : edge array; buf : Bitset.t }

let none = Bitset.create 0

let make ~tc2 row edges =
  let edge (slot, other, out) = { slot; other; out; masks = [||] } in
  { tc2; row; edges = Array.map edge edges; buf = Bitset.create (Array.length row) }

let mask t e j =
  if Array.length e.masks = 0 then e.masks <- Array.make (Array.length e.other) none;
  if e.masks.(j) == none then begin
    let u' = e.other.(j) and m = Bitset.create (Array.length t.row) in
    for i = 0 to Array.length t.row - 1 do
      let u = t.row.(i) in
      if if e.out then Bitmatrix.get t.tc2 u u' else Bitmatrix.get t.tc2 u' u then
        Bitset.add m i
    done;
    e.masks.(j) <- m
  end;
  e.masks.(j)

let iter t at off f =
  let placed = ref false in
  Array.iter
    (fun e ->
      let j = at.(off + e.slot) in
      if j >= 0 then begin
        if !placed then Bitset.inter_into ~into:t.buf (mask t e j)
        else Bitset.copy_into ~into:t.buf (mask t e j);
        placed := true
      end)
    t.edges;
  if !placed then Bitset.iter f t.buf
  else
    for i = 0 to Array.length t.row - 1 do
      f i
    done
