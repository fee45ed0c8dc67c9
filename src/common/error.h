// Error types shared across the LightSecAgg library.
//
// Contract violations detected at API boundaries throw a subclass of
// lsa::Error; internal invariant violations use assert(). Following the
// C++ Core Guidelines (E.2, I.5), errors that a caller can meaningfully
// react to (e.g. "too many users dropped to recover the aggregate") are
// typed so they can be caught independently.
#pragma once

#include <stdexcept>
#include <string>

namespace lsa {

/// Base class of all exceptions thrown by this library.
class Error : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// A protocol-level failure: bad parameters (T + D >= N), too many dropouts
/// to recover, messages from unknown users, duplicate uploads, etc.
class ProtocolError : public Error {
 public:
  using Error::Error;
};

/// A coding-layer failure: non-MDS evaluation points, insufficient shares
/// for interpolation, mismatched segment sizes.
class CodingError : public Error {
 public:
  using Error::Error;
};

/// A quantization-layer failure: field too small for the requested range,
/// value outside the representable window.
class QuantError : public Error {
 public:
  using Error::Error;
};

/// A configuration failure in the FL / simulation harness.
class ConfigError : public Error {
 public:
  using Error::Error;
};

/// Throws E(msg) when cond is false. Used for API-boundary contract checks.
/// The message is a C string so a passing check builds nothing: it runs on
/// hot paths (every router send and receive). A site whose message needs
/// formatting tests its condition and throws explicitly instead.
template <class E = Error>
inline void require(bool cond, const char* msg) {
  if (!cond) throw E(msg);
}

}  // namespace lsa
