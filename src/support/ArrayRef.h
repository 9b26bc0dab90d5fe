//===- support/ArrayRef.h - Non-owning view of an array ---------*- C++ -*-===//
//
// Part of the SemCommute project: a reproduction of Kim & Rinard,
// "Verification of Semantic Commutativity Conditions and Inverse Operations
// on Linked Data Structures" (PLDI 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// ArrayRef<T>: a pointer and a count, the C++17 stand-in for
/// std::span<const T>. It converts implicitly from a C array and any
/// contiguous container with data() and size() (std::vector, SmallVector),
/// so one parameter type takes every way a caller holds its operands
/// without copying them into a std::vector first.
///
/// An ArrayRef never owns its elements: it is meant for parameters. It
/// has no braced-list constructor, since one would point into an array
/// that dies at the end of the full expression; a function that takes
/// braced lists adds an std::initializer_list overload that forwards
/// (List.begin(), List.size()).
///
//===----------------------------------------------------------------------===//

#ifndef SEMCOMM_SUPPORT_ARRAYREF_H
#define SEMCOMM_SUPPORT_ARRAYREF_H

#include <cassert>
#include <cstddef>
#include <type_traits>
#include <utility>

namespace semcomm {

template <typename T> class ArrayRef {
public:
  ArrayRef() = default;
  ArrayRef(const T *Data, size_t Size) : Data(Data), Size(Size) {}
  template <size_t N> ArrayRef(const T (&Array)[N]) : Data(Array), Size(N) {}
  /// Any container whose data() points at contiguous Ts.
  template <typename Container,
            typename = std::enable_if_t<std::is_convertible<
                decltype(std::declval<const Container &>().data()),
                const T *>::value>>
  ArrayRef(const Container &C) : Data(C.data()), Size(C.size()) {}

  size_t size() const { return Size; }
  const T *begin() const { return Data; }
  const T *end() const { return Data + Size; }
  const T &operator[](size_t I) const {
    assert(I < Size && "ArrayRef index out of range");
    return Data[I];
  }

private:
  const T *Data = nullptr;
  size_t Size = 0;
};

} // namespace semcomm

#endif // SEMCOMM_SUPPORT_ARRAYREF_H
