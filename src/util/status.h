#ifndef CEM_UTIL_STATUS_H_
#define CEM_UTIL_STATUS_H_

#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>

namespace cem {

/// Error categories used across the library. Follows the familiar
/// absl::StatusCode vocabulary, restricted to the codes we actually raise.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kOutOfRange,
  kFailedPrecondition,
  kInternal,
  kUnimplemented,
};

/// Returns a human-readable name for `code` (e.g. "INVALID_ARGUMENT").
std::string_view StatusCodeToString(StatusCode code);

/// Lightweight status object for fallible operations. Library functions
/// that can fail return `Status` or `Result<T>` rather than throw.
class Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}

  /// Constructs a status with `code` and diagnostic `message`.
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  Status(const Status&) = default;
  Status& operator=(const Status&) = default;
  Status(Status&&) = default;
  Status& operator=(Status&&) = default;

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// Renders "OK" or "CODE: message".
  std::string ToString() const;

  friend bool operator==(const Status& a, const Status& b) {
    return a.code_ == b.code_ && a.message_ == b.message_;
  }

 private:
  StatusCode code_;
  std::string message_;
};

std::ostream& operator<<(std::ostream& os, const Status& status);

Status OkStatus();
Status InvalidArgumentError(std::string message);
Status NotFoundError(std::string message);
Status OutOfRangeError(std::string message);
Status FailedPreconditionError(std::string message);
Status InternalError(std::string message);
Status UnimplementedError(std::string message);

/// Holds either a value of type `T` or an error `Status`. Accessing the
/// value of an errored result aborts the process (checked via CEM_CHECK
/// semantics), mirroring absl::StatusOr.
template <typename T>
class Result {
 public:
  /// Implicit construction from a value, for natural `return value;` use.
  Result(T value) : value_(std::move(value)) {}  // NOLINT(runtime/explicit)

  /// Implicit construction from an error status. `status` must not be OK.
  Result(Status status) : status_(std::move(status)) {}  // NOLINT

  bool ok() const { return value_.has_value(); }

  const Status& status() const {
    static const Status kOk;
    return value_.has_value() ? kOk : status_;
  }

  const T& value() const& {
    AbortIfError();
    return *value_;
  }
  T& value() & {
    AbortIfError();
    return *value_;
  }
  T&& value() && {
    AbortIfError();
    return *std::move(value_);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  void AbortIfError() const;

  std::optional<T> value_;
  Status status_;
};

namespace internal_status {
[[noreturn]] void DieBadResultAccess(const Status& status);
}  // namespace internal_status

template <typename T>
void Result<T>::AbortIfError() const {
  if (!value_.has_value()) internal_status::DieBadResultAccess(status_);
}

}  // namespace cem

/// Propagates a non-OK status from an expression that yields `cem::Status`.
#define CEM_RETURN_IF_ERROR(expr)                   \
  do {                                              \
    ::cem::Status cem_status_macro_tmp__ = (expr);  \
    if (!cem_status_macro_tmp__.ok()) {             \
      return cem_status_macro_tmp__;                \
    }                                               \
  } while (false)

#define CEM_STATUS_MACROS_CONCAT_INNER_(x, y) x##y
#define CEM_STATUS_MACROS_CONCAT_(x, y) \
  CEM_STATUS_MACROS_CONCAT_INNER_(x, y)

/// Unwraps a `cem::Result<T>` expression into `lhs` (a declaration or an
/// existing variable), propagating the error status on failure:
///
///   CEM_ASSIGN_OR_RETURN(const ArrivalMeta meta, ReadArrivalMeta(dir));
#define CEM_ASSIGN_OR_RETURN(lhs, expr)                              \
  CEM_ASSIGN_OR_RETURN_IMPL_(                                        \
      CEM_STATUS_MACROS_CONCAT_(cem_result_macro_tmp__, __LINE__), lhs, expr)

#define CEM_ASSIGN_OR_RETURN_IMPL_(tmp, lhs, expr) \
  auto tmp = (expr);                               \
  if (!tmp.ok()) {                                 \
    return tmp.status();                           \
  }                                                \
  lhs = std::move(tmp).value()

#endif  // CEM_UTIL_STATUS_H_
