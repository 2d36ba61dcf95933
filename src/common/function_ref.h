// Non-owning reference to a callable, for parameters that are only called
// while the function they are passed to runs.
//
// std::function owns a copy of its target and allocates once the target's
// captures outgrow its small buffer; a FunctionRef holds only the address
// of the caller's callable and a trampoline, so passing a lambda never
// allocates. The callable must outlive every call through the reference —
// true by construction for a parameter the callee does not keep.
#pragma once

#include <memory>
#include <type_traits>
#include <utility>

namespace dflp {

template <typename Signature>
class FunctionRef;

template <typename R, typename... Args>
class FunctionRef<R(Args...)> {
 public:
  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, FunctionRef> &&
             std::is_invocable_r_v<R, F&, Args...>)
  FunctionRef(F&& fn) noexcept  // implicit, like std::function's
      : obj_(const_cast<void*>(static_cast<const void*>(std::addressof(fn)))),
        call_([](void* obj, Args... args) -> R {
          return (*static_cast<std::remove_reference_t<F>*>(obj))(
              std::forward<Args>(args)...);
        }) {}

  R operator()(Args... args) const {
    return call_(obj_, std::forward<Args>(args)...);
  }

 private:
  void* obj_;
  R (*call_)(void*, Args...);
};

}  // namespace dflp
