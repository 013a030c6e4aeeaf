package epf

// OpenSetHash is openSetHash for the external test package.
var OpenSetHash = openSetHash
