(* A stack of fixed-width int records in one flat array: entry [i]'s field
   [f] is [data.(i * width + f)]. The array doubles when a push finds it
   full and never shrinks, so once a stack has reached its high-water mark
   no operation allocates. *)

type t = { width : int; mutable data : int array; mutable len : int }

let create ~width =
  if width <= 0 then invalid_arg "Int_stack.create: width must be positive";
  { width; data = Array.make (4 * width) 0; len = 0 }

let[@inline] length t = t.len
let clear t = t.len <- 0
let[@inline] get t i f = t.data.((i * t.width) + f)
let[@inline] set t i f v = t.data.((i * t.width) + f) <- v

let grow t =
  let bigger = Array.make (2 * Array.length t.data) 0 in
  Array.blit t.data 0 bigger 0 (t.len * t.width);
  t.data <- bigger

let[@inline] push t =
  let i = t.len in
  if (i + 1) * t.width > Array.length t.data then grow t;
  t.len <- i + 1;
  i

let remove_below t i =
  if i < 0 then invalid_arg "Int_stack.remove: no such entry";
  let w = t.width in
  Array.blit t.data ((i + 1) * w) t.data (i * w) ((t.len - 1 - i) * w);
  t.len <- t.len - 1

let[@inline] remove t i =
  if i = t.len - 1 && i >= 0 then t.len <- i
  else if i < t.len then remove_below t i
  else invalid_arg "Int_stack.remove: no such entry"

let pop t = if t.len > 0 then t.len <- t.len - 1

let rec find_from t f v i =
  if i < 0 then -1 else if get t i f = v then i else find_from t f v (i - 1)

let find t f v = find_from t f v (t.len - 1)
