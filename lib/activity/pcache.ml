type t = Profile.t

let create profile = profile

let p = Profile.p
