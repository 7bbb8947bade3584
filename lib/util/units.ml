type ps = float
type volt = float
type ff = float
type fc = float
type ma = float
type fj = float
type nm = float

let fs_of_ps t = t *. 1000.
let ns_of_ps t = t /. 1000.
let pf_of_ff c = c /. 1000.
let ua_of_ma i = i *. 1000.
