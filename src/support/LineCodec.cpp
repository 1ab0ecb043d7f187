//===- support/LineCodec.cpp - Checked line-oriented text codec -----------===//

#include "support/LineCodec.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>

namespace specpre {
namespace linecodec {

std::string esc(const std::string &S) {
  if (S.empty())
    return "%";
  std::string Out;
  Out.reserve(S.size());
  for (unsigned char C : S) {
    if (C == '%' || C <= ' ' || C == 0x7f) {
      char Buf[4];
      std::snprintf(Buf, sizeof(Buf), "%%%02x", C);
      Out += Buf;
    } else {
      Out += static_cast<char>(C);
    }
  }
  return Out;
}

namespace {

int hexVal(char C) {
  if (C >= '0' && C <= '9')
    return C - '0';
  if (C >= 'a' && C <= 'f')
    return C - 'a' + 10;
  if (C >= 'A' && C <= 'F')
    return C - 'A' + 10;
  return -1;
}

bool isDigit(char C) { return C >= '0' && C <= '9'; }

} // namespace

bool unesc(const std::string &T, std::string &Out) {
  Out.clear();
  if (T == "%")
    return true;
  for (size_t I = 0; I != T.size(); ++I) {
    if (T[I] != '%') {
      Out += T[I];
      continue;
    }
    if (I + 2 >= T.size())
      return false;
    int Hi = hexVal(T[I + 1]), Lo = hexVal(T[I + 2]);
    if (Hi < 0 || Lo < 0)
      return false;
    Out += static_cast<char>(Hi * 16 + Lo);
    I += 2;
  }
  return true;
}

std::vector<std::string> splitTokens(const std::string &Line) {
  std::vector<std::string> Out;
  size_t I = 0;
  while (I < Line.size()) {
    while (I < Line.size() && Line[I] == ' ')
      ++I;
    size_t J = I;
    while (J < Line.size() && Line[J] != ' ')
      ++J;
    if (J > I)
      Out.push_back(Line.substr(I, J - I));
    I = J;
  }
  return Out;
}

bool nextLine(const std::string &Text, size_t &Pos, std::string &Line) {
  if (Pos >= Text.size())
    return false;
  size_t Nl = Text.find('\n', Pos);
  if (Nl == std::string::npos)
    return false;
  Line = Text.substr(Pos, Nl - Pos);
  Pos = Nl + 1;
  return true;
}

bool parseU64(const std::string &T, uint64_t &Out) {
  // Reject anything strtoull would quietly tolerate: empty tokens,
  // leading whitespace, '+'/'-' signs (a negative wraps to a huge
  // positive), hex prefixes, and an embedded NUL, at which strtoull
  // would stop early. The token must be pure decimal digits.
  if (T.empty() || !isDigit(T[0]))
    return false;
  errno = 0;
  char *End = nullptr;
  Out = std::strtoull(T.c_str(), &End, 10);
  return errno != ERANGE && End == T.data() + T.size();
}

bool parseI64(const std::string &T, int64_t &Out) {
  size_t First = (!T.empty() && T[0] == '-') ? 1 : 0;
  if (T.size() == First || !isDigit(T[First]))
    return false;
  errno = 0;
  char *End = nullptr;
  Out = std::strtoll(T.c_str(), &End, 10);
  return errno != ERANGE && End == T.data() + T.size();
}

bool parseU32(const std::string &T, unsigned &Out) {
  uint64_t V;
  if (!parseU64(T, V) || V > 0xffffffffULL)
    return false;
  Out = static_cast<unsigned>(V);
  return true;
}

bool parseBool(const std::string &T, bool &Out) {
  if (T != "0" && T != "1")
    return false;
  Out = T == "1";
  return true;
}

} // namespace linecodec
} // namespace specpre
